package repro.wildfire

import java.nio.file.{Files, Path}
import repro.core._

/** The groomer (paper §2.1): migrates data from the live zone to the
  * groomed zone once per cycle.
  *
  * Merges the cycle's committed log records in time (commit) order, resolves
  * conflicts by assigning each record a monotonically increasing beginTS —
  * high-order bits from the groom sequence number, low-order bits from the
  * transaction commit sequence in the shard replica — writes one columnar
  * Parquet block to shared storage, and builds a level-0 index run over it
  * (paper §5.2).
  */
final class Groomer(
    groomedDir: Path,
    index: UmziIndex) {

  Files.createDirectories(groomedDir)

  /** Bits reserved for the commit sequence inside beginTS (paper §2.1: the
    * commit time of transactions is effectively postponed to the groom time).
    */
  val CommitSeqBits: Int = 20

  def beginTsOf(groomSeq: Long, commitSeq: Int): Long =
    (groomSeq << CommitSeqBits) | (commitSeq & ((1 << CommitSeqBits) - 1))

  /** Groom one cycle into block `groomSeq`: returns its metadata, or None
    * if the live zone had nothing committed.
    */
  def groom(upserts: Array[Upsert], groomSeq: Long): Option[BlockMeta] = {
    if (upserts.isEmpty) return None

    // Merge in time order and assign monotonic beginTS; the record offset in
    // the block is its position in commit order, which fixes its RID.
    val rows = upserts.sortBy(_.commitSeq).zipWithIndex.map { case (u, off) =>
      Array(u.deviceId, u.msgNum, u.value, beginTsOf(groomSeq, u.commitSeq), off.toLong)
    }
    val meta = ShardFiles.writeBlock(groomedDir, ZoneId.Groomed, groomSeq, Groomer.Columns, rows)

    // Index build over the newly groomed block (paper §5.2).
    val entries = rows.map { case Array(device, msg, value, ts, off) =>
      IndexEntry(Array(device), Array(msg), ts,
        Rid(ZoneId.Groomed, groomSeq, off.toInt), Array(value))
    }
    index.addGroomedRun(entries, BlockRange(groomSeq, groomSeq))
    Some(meta)
  }
}

object Groomer {
  /** Columns of a groomed block file, in file order. */
  val Columns: Seq[String] = Seq("deviceId", "msgNum", "value", "beginTS", "offset")
}
