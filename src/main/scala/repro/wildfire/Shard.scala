package repro.wildfire

import java.nio.file.{Files, Path}
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
  * storage under one directory:
  *
  * {{{
  *   <root>/shared/groomed/        groomed Parquet blocks + sidecar metas
  *   <root>/shared/postgroomed/    post-groomed Parquet blocks + metas
  *   <root>/shared/endts/          append-only endTS delta files
  *   <root>/shared/index-runs/     persisted index runs
  * }}}
  *
  * Groom and post-groom run in process (parquet-mr block writes over plain
  * arrays); `spark` is the session that DSv2 queries over the shard use.
  */
final class Shard(
    val spark: SparkSession,
    val root: Path,
    indexConfig: UmziConfig = Shard.defaultConfig,
    tiers: TierConfig = TierConfig()) {

  require(indexConfig.defn.nEq == 1 && indexConfig.defn.nSort == 1 &&
    indexConfig.defn.nIncluded == 1,
    "shard schema expects one equality (deviceId), one sort (msgNum), one included (value) column")

  val sharedRoot: Path = root.resolve("shared")
  val groomedDir: Path = sharedRoot.resolve("groomed")
  Files.createDirectories(groomedDir)

  val runStorage: SharedStorage = new SharedStorage(sharedRoot)
  val cache: CacheManager = new CacheManager(tiers, Some(runStorage))
  val index: UmziIndex = new UmziIndex(indexConfig, cache)

  val liveZone: LiveZone = new LiveZone
  val groomer: Groomer = new Groomer(groomedDir, index)
  val postGroomer: PostGroomer = new PostGroomer(sharedRoot, index)
  val indexer: Indexer = new Indexer(postGroomer, index, Some(runStorage))

  // The next groomed block ID, which is also the groom sequence number that
  // beginTS derives from. Resume it after a restart so beginTS stays
  // monotonic: continue past both surviving groomed blocks and the
  // post-groomed coverage watermark.
  private var nextGroomedBlockId: Long = math.max(
    BlockMeta.listIn(groomedDir).map(_.blockId).maxOption.map(_ + 1).getOrElse(0L),
    postGroomer.readState()._2 + 1)

  /** Commit a transaction's upserts into the live zone. */
  def ingest(batch: Iterable[Upsert]): Unit = liveZone.ingest(batch)

  /** One groom cycle (paper: every second). */
  def groomOnce(): Option[BlockMeta] = {
    val drained = liveZone.drain()
    val meta = groomer.groom(drained, nextGroomedBlockId, nextGroomedBlockId)
    if (meta.isDefined) nextGroomedBlockId += 1
    meta
  }

  /** One post-groom cycle (paper: every 10 minutes / 20 s in experiments). */
  def postGroomOnce(): Option[PostGroomResult] = {
    val (_, coveredHi, _) = postGroomer.readState()
    val pending = BlockMeta.listIn(groomedDir).filter(_.blockId > coveredHi)
    postGroomer.postGroom(pending)
  }

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
    val discarded = index.recover(runStorage.listRuns(indexConfig.defn), watermark)
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
