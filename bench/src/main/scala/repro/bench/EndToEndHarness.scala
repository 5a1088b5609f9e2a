package repro.bench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicBoolean
import repro.core._
import repro.storage.{CacheManager, TierConfig}
import repro.wildfire.Workload
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** End-to-end index-lifecycle harness for the paper's §8.4 experiments
  * (Figures 12–15): concurrent data ingest, groom-cycle index builds,
  * periodic post-groom/evolve, cache management, and reader threads issuing
  * 1000-key lookup batches continuously.
  *
  * The harness drives the *index* lifecycle directly (entries in, runs
  * built/merged/evolved, lookups measured) — exactly the surface the paper
  * times, which explicitly excludes record fetch by RID (§8.1). The full
  * Parquet data plane is exercised by the `repro.wildfire` integration
  * tests; repeating it here would only add constant Parquet write cost to
  * every cycle without changing any index-side shape.
  */
object EndToEndHarness {

  /** One measured lookup batch: the cycle it ran in and its cell. */
  final case class Sample(cycle: Int, cell: Cell)

  final case class Config(
      cyclesTotal: Int,
      recordsPerCycle: Int,
      postGroomEvery: Int,
      postGroomEnabled: Boolean = true,
      updatePercent: Double = 10.0,
      nReaders: Int = 1,
      /** manual SSD purge level (Fig 14): Int.MaxValue = nothing purged. */
      purgeLevel: Int = Int.MaxValue,
      windowCycles: Int,
      cyclePauseMillis: Long)

  private val LookupBatchSize = 1000
  private val NDevices = 64L
  private val Seed = 11L

  final case class Result(
      /** mean per-batch lookup cell per window of cycles; None if the window
        * recorded no batch */
      windows: Seq[Option[Cell]],
      finalRunCount: Int,
      finalEntryCount: Long,
      samples: Int)

  def run(cfg: Config): Result = {
    val defn = IndexDef(Seq("deviceId"), Seq("msgNum"), Seq("value"))
    val cache = new CacheManager(TierConfig())
    val index = new UmziIndex(UmziConfig(defn, maxRunsPerLevel = 4, sizeRatio = 4,
      postGroomedStartLevel = 6, maxLevel = 9), cache)
    cache.setManualPurgeLevel(cfg.purgeLevel)

    val workload = new Workload(NDevices, sequentialKeys = false, cfg.updatePercent, Seed)

    require(cfg.cyclesTotal >= 1 && cfg.recordsPerCycle >= 1, "need at least one record")
    // every ingested primary key, appended in place; readers sample slots
    // [0, published)
    val keyDevices = new Array[Long](Math.multiplyExact(cfg.cyclesTotal, cfg.recordsPerCycle))
    val keyMsgs = new Array[Long](keyDevices.length)
    var appended = 0
    @volatile var published = 0
    @volatile var currentCycle = 0
    val stopped = new AtomicBoolean(false)
    val samples = new ConcurrentLinkedQueue[Sample]()

    // retained groomed entries per block, for later evolve
    val groomedEntries = mutable.Map.empty[Long, Array[IndexEntry]]
    var coveredHi = -1L
    var postBlockId = 1_000_000L

    def runCycle(cycle: Int): Unit = {
      currentCycle = cycle
      val batch = workload.nextBatch(cfg.recordsPerCycle)
      val tsBase = cycle.toLong << 20
      val es = batch.zipWithIndex.map { case (u, i) =>
        IndexEntry(Array(u.deviceId), Array(u.msgNum), tsBase | u.commitSeq,
          Rid(ZoneId.Groomed, cycle, i), Array(u.value))
      }
      groomedEntries(cycle.toLong) = es
      index.addGroomedRun(es, BlockRange(cycle, cycle))
      batch.foreach { u =>
        keyDevices(appended) = u.deviceId
        keyMsgs(appended) = u.msgNum
        appended += 1
      }
      published = appended

      if (cfg.postGroomEnabled && (cycle + 1) % cfg.postGroomEvery == 0) {
        // post-groom + evolve: re-point covered blocks' entries to the
        // post-groomed zone (RIDs change as data evolves, paper §3)
        val lo = coveredHi + 1
        val hi = cycle.toLong
        val moved = (lo to hi).flatMap(b => groomedEntries.remove(b).getOrElse(Array.empty))
        val evolved = moved.zipWithIndex.map { case (e, i) =>
          IndexEntry(e.eqValues, e.sortValues, e.beginTS,
            Rid(ZoneId.PostGroomed, postBlockId, i), e.includedValues)
        }.toArray
        index.evolve(evolved, BlockRange(lo, hi))
        coveredHi = hi
        postBlockId += 1
      }
      cache.maintainCache()
      if (cfg.cyclePauseMillis > 0) Thread.sleep(cfg.cyclePauseMillis)
    }

    // readers start once cycle 0 has published keys, so no batch looks up
    // keys of an empty index
    runCycle(0)
    val readers = (0 until cfg.nReaders).map { rid =>
      new Thread(() => {
        val rng = new scala.util.Random(Seed + 1000 + rid)
        while (!stopped.get()) {
          val n = published
          val batch = Array.fill(LookupBatchSize) {
            val s = rng.nextInt(n)
            (Array(keyDevices(s)), Array(keyMsgs(s)))
          }
          val cycle = currentCycle
          samples.add(Sample(cycle, BenchUtil.measure(cache)(BenchUtil.lookupBlocks(index, batch))))
        }
      }, s"umzi-reader-$rid")
    }
    readers.foreach { t => t.setDaemon(true); t.start() }
    (1 until cfg.cyclesTotal).foreach(runCycle)

    stopped.set(true)
    // wait for every reader to die — a straggler would steal CPU from (and
    // so corrupt the timings of) the next experiment configuration
    readers.foreach(_.join(60000))
    require(readers.forall(!_.isAlive), "reader threads failed to stop")

    val byWindow = samples.iterator().asScala.toSeq.groupBy(_.cycle / cfg.windowCycles)
    val nWindows = (cfg.cyclesTotal + cfg.windowCycles - 1) / cfg.windowCycles
    val windows = (0 until nWindows).map(w => byWindow.get(w).map(ss => Cell.mean(ss.map(_.cell))))
    val runs = index.visibleRuns()
    Result(windows, runs.size, runs.map(_.count.toLong).sum,
      samples.size())
  }
}
