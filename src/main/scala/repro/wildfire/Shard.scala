package repro.wildfire

import java.nio.file.Path
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.storage.{CacheManager, SharedStorage, TierConfig}

/** One Wildfire table shard (paper §2.1, §3): the unit of grooming,
  * post-grooming and indexing.
  *
  * Table: IoT-style `(deviceId, msgNum, value)` with primary key
  * `(deviceId, msgNum)`, sharding key `deviceId`, partition key = `msgNum`
  * ranges. The shard wires together the live zone, groomer, post-groomer,
  * indexer, the Umzi index instance, the tiered cache manager and shared
  * storage under `<root>/shared`: the zones' files as [[ShardFiles]] lays
  * them out, and the persisted index runs and checkpoint of
  * [[SharedStorage]].
  *
  * Groom and post-groom run in process (parquet-mr block writes over plain
  * arrays); `spark` is the session that DSv2 queries over the shard use.
  */
final class Shard(val spark: SparkSession, val root: Path) {

  val sharedRoot: Path = root.resolve("shared")
  val groomedDir: Path = ShardFiles.zoneDir(sharedRoot, ZoneId.Groomed)

  val runStorage: SharedStorage = new SharedStorage(sharedRoot)
  val cache: CacheManager = new CacheManager(TierConfig(), Some(runStorage))
  val index: UmziIndex = new UmziIndex(Shard.defaultConfig, cache)

  val liveZone: LiveZone = new LiveZone
  val groomer: Groomer = new Groomer(groomedDir, index)
  val postGroomer: PostGroomer = new PostGroomer(sharedRoot, index)
  val indexer: Indexer = new Indexer(index, runStorage)

  // The next groomed block ID, which is also the groom sequence number that
  // beginTS derives from. Resume it after a restart so beginTS stays
  // monotonic: continue past both the uncovered groomed blocks and the
  // post-groomed coverage watermark.
  private var nextGroomedBlockId: Long = {
    val view = new PublishedView(sharedRoot)
    view.groomed.lastOption.fold(view.coveredHi + 1)(_.blockId + 1)
  }

  /** Commit a transaction's upserts into the live zone. */
  def ingest(batch: Iterable[Upsert]): Unit = liveZone.ingest(batch)

  /** One groom cycle (paper: every second). */
  def groomOnce(): Option[BlockMeta] = {
    val drained = liveZone.drain()
    val meta = groomer.groom(drained, nextGroomedBlockId)
    if (meta.isDefined) nextGroomedBlockId += 1
    meta
  }

  /** One post-groom cycle (paper: every 10 minutes / 20 s in experiments). */
  def postGroomOnce(): Option[PostGroomResult] = postGroomer.postGroom()

  /** Let the indexer catch up on published PSNs (index evolve). */
  def indexerPoll(): Int = indexer.poll()

  /** Point lookup through the unified index. */
  def lookup(deviceId: Long, msgNum: Long, queryTS: Long = Long.MaxValue): Option[IndexEntry] =
    QueryExec.pointLookup(index, Array(deviceId), Array(msgNum), queryTS)

  /** Range scan through the unified index: all msgNum in [lo, hi] of one
    * device, most recent visible version per key.
    */
  def scan(deviceId: Long, msgLo: Long, msgHi: Long, queryTS: Long = Long.MaxValue,
      method: Reconcile.Method = Reconcile.PriorityQueueApproach): Seq[IndexEntry] =
    QueryExec.rangeScan(index, Array(deviceId), Array(msgLo), Array(msgHi), queryTS, method)
      .toSeq

  /** Crash-recover the index from shared storage (paper §5.5): reload
    * persisted runs, rebuild the run lists, restore the watermark and
    * IndexedPSN, and drop already-merged runs.
    */
  def recoverIndex(): Seq[Long] = {
    val (watermark, psn) = runStorage.readCheckpoint()
    val discarded = index.recover(runStorage.listRuns(Shard.defaultDefn), watermark)
    indexer.restoreIndexedPsn(psn)
    discarded
  }
}

object Shard {
  /** deviceId equality + msgNum sort + value included — the paper's I1. */
  val defaultDefn: IndexDef = IndexDef(Seq("deviceId"), Seq("msgNum"), Seq("value"))

  val defaultConfig: UmziConfig = UmziConfig(
    defn = defaultDefn,
    maxRunsPerLevel = 4,
    sizeRatio = 4,
    postGroomedStartLevel = 6,
    maxLevel = 9)
}
