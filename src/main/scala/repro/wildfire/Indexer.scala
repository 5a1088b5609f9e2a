package repro.wildfire

import repro.core._
import repro.storage.SharedStorage

/** The indexer daemon (paper §3, §5.4, Fig 5).
  *
  * Runs independently of the post-groomer: it tracks IndexedPSN, polls the
  * published MaxPSN, and while IndexedPSN < MaxPSN performs one index evolve
  * operation per PSN *in order* — building a run over that PSN's
  * post-groomed blocks, atomically adding it to the post-groomed run list,
  * raising the covered-groomed-ID watermark and garbage-collecting covered
  * groomed runs. After each evolve the watermark and IndexedPSN are
  * checkpointed to the shared storage it polls, for recovery (paper §5.5).
  */
final class Indexer(index: UmziIndex, storage: SharedStorage) {

  @volatile private var _indexedPsn: Long = -1L

  def indexedPsn: Long = _indexedPsn

  /** Restore IndexedPSN from a recovery checkpoint. */
  def restoreIndexedPsn(psn: Long): Unit = { _indexedPsn = psn }

  /** Poll MaxPSN and evolve once per pending PSN; returns evolve count. */
  def poll(): Int = {
    val view = new PublishedView(storage.root)
    var n = 0
    while (_indexedPsn < view.maxPsn) {
      evolveOne(_indexedPsn + 1, view.postGroomed)
      n += 1
    }
    n
  }

  /** Evolve the `published` post-groomed blocks of `psn`. A post-groom that
    * stopped before publishing may have left more blocks with the same PSN,
    * which the post-groom that redid it replaced.
    */
  private def evolveOne(psn: Long, published: Seq[BlockMeta]): Unit = {
    val metas = published.filter(_.psn == psn)
    require(metas.nonEmpty, s"no post-groomed blocks published for PSN $psn")
    val entries = metas.flatMap { m =>
      ParquetIo.readLongRows(m.file, "deviceId", "msgNum", "value", "beginTS", "offset")
        .map { case Array(d, msg, v, ts, off) =>
          IndexEntry(Array(d), Array(msg), ts,
            Rid(ZoneId.PostGroomed, m.blockId, off.toInt), Array(v))
        }
    }.toArray
    val covered = BlockRange(metas.head.coveredLo, metas.head.coveredHi)
    index.evolve(entries, covered)
    _indexedPsn = psn
    storage.writeCheckpoint(index.maxCoveredGroomedId, psn)
  }
}
