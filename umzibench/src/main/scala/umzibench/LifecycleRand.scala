package umzibench

import java.nio.file.{Files, Path}
import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicBoolean
import repro.core._
import repro.storage.{CacheManager, IoStats, SharedStorage, TierConfig}
import repro.wildfire.Workload
import scala.collection.mutable

/** `lifecycle-rand`: the index-only shape of the paper's Figs 12/13/15.
  *
  * One maintenance thread grooms paced cycles of random-key upserts into an
  * [[UmziIndex]] (build, merges, persist), evolves every [[EvolveEvery]]
  * cycles and runs cache maintenance every cycle, while [[Readers]]
  * closed-loop threads issue 1000-key batch lookups over the keys published
  * so far. The SSD budget is a quarter of the index's final size, so the
  * cache purges and faults. A quiescent phase then scans and checks the
  * index exactly against the model, and a fresh index recovers from shared
  * storage.
  */
object LifecycleRand {
  val Defn: IndexDef = IndexDef(Seq("deviceId"), Seq("msgNum"), Seq("value"))
  val Config: UmziConfig = UmziConfig(Defn, maxRunsPerLevel = 4, sizeRatio = 4,
    postGroomedStartLevel = 6, maxLevel = 9)
  val Devices = 64
  val RecordsPerCycle = 10000
  val UpdatePercent = 10.0
  val EvolveEvery = 20
  val Readers = 2
  val BatchKeys = 1000
  /** A groom cycle is due every this many milliseconds. */
  val CyclePeriodMs = 40L
  /** Share of the run's seconds spent ingesting; the rest is the quiescent phase. */
  val IngestShare = 0.75
  val SetupReps = 3
  val WarmupCycles = 40
  val RecoveryReps = 7
  val MaxMsg: Long = (1L << 40) - 1

  /** Planned groom cycles for a run of `seconds`. */
  def plannedCycles(seconds: Int): Int =
    math.max(EvolveEvery, (IngestShare * seconds * 1000 / CyclePeriodMs).toInt)

  /** SSD budget: a quarter of the index's final bytes. */
  def ssdBudget(cycles: Int): Long = cycles.toLong * RecordsPerCycle * Defn.entryWidth / 4

  def run(o: Options, tracer: Tracer, checks: Checks, report: Report): Unit = {
    val cycles = plannedCycles(o.seconds)
    val budget = ssdBudget(cycles)
    report.info("cycles") = cycles.toString
    report.info("records_per_cycle") = RecordsPerCycle.toString
    report.info("cycle_period_ms") = CyclePeriodMs.toString
    report.info("readers") = s"$Readers closed-loop threads, $BatchKeys-key batches"
    report.info("tier_config") = TierConfig(ssdCapacityBytes = budget).toString
    report.info("ssd_budget_bytes") = budget.toString

    // Set-up: JIT warm-up on throwaway lifecycles, each timed.
    val setup = new Samples()
    (0 until SetupReps).foreach { rep =>
      val t0 = System.nanoTime()
      val dir = o.workDir.resolve(s"lifecycle-warmup-$rep")
      val w = new Instance(dir, o.seed + 7919L * (rep + 1), WarmupCycles, ssdBudget(WarmupCycles),
        Tracer.Off, checks)
      w.ingest(periodNs = 0L)
      w.quiescent(budgetNs = 200_000_000L, new QueryProbe(w.cache, Tracer.Off, checks),
        new SplittableRandom(o.seed + rep))
      w.recoverReps(1)
      FileTree.deleteTree(dir)
      setup.add(System.nanoTime() - t0)
    }
    System.gc()

    val dir = o.workDir.resolve("lifecycle")
    val inst = new Instance(dir, o.seed, cycles, budget, tracer, checks)
    val jvm = new Jvm.Window
    val ingestStart = System.nanoTime()
    val readerStats = inst.ingest(periodNs = CyclePeriodMs * 1_000_000L)
    val ingestNs = System.nanoTime() - ingestStart
    System.gc() // the quiescent phase starts from a heap cleared of ingest garbage
    val scanProbe = new QueryProbe(inst.cache, tracer, checks)
    val quiescentNs = ((1 - IngestShare) * o.seconds * 1e9).toLong
    inst.quiescent(quiescentNs, scanProbe, new SplittableRandom(Mix.hash(o.seed)))
    jvm.report(report)
    val finalRuns = inst.index.visibleRuns()
    inst.recoverReps(RecoveryReps)
    val spaceAmp = FileTree.treeBytes(dir).toDouble / (inst.records * Workloads.UserBytesPerRecord)

    val q = Stats.merged(readerStats :+ scanProbe.stats)
    val m = inst.maint
    val h = inst.hooks.stats
    report.e2e("setup_s", setup.p50 / 1e9, "s")
    report.e2e("lookup_batch_p50_ms", q("batch_ns").p50 / 1e6, "ms", s"n=${q("batch_ns").size}")
    report.e2e("lookup_batch_sim_io_ms", q("batch_sim_ns").mean / 1e6, "ms", "simulated, not in wall time")
    report.e2e("groom_p50_ms", m("groom_ns").p50 / 1e6, "ms", s"n=${m("groom_ns").size}")
    report.e2e("groom_p90_ms", m("groom_ns").quantile(0.9) / 1e6, "ms", s"n=${m("groom_ns").size}")
    report.e2e("ingest_rec_per_s", inst.records / (m("busy_ns").sum / 1e9), "rec/s")
    report.e2e("recovery_ms", m("recovery_ns").p50 / 1e6, "ms", s"n=${m("recovery_ns").size}")
    report.e2e("space_amp", spaceAmp, "ratio")
    report.e2e("index_mem_mb", IndexBytes.of(finalRuns) / 1e6, "MB")
    report.more("lookup_batch_p99_ms", q("batch_ns").quantile(0.99) / 1e6, "ms", s"n=${q("batch_ns").size}")
    report.more("scan_short_p50_ms", q("scan_short_ns").p50 / 1e6, "ms", s"n=${q("scan_short_ns").size}")
    report.more("scan_long_p50_ms", q("scan_long_ns").p50 / 1e6, "ms", s"n=${q("scan_long_ns").size}")
    report.info("ingest_wall_s") = f"${ingestNs / 1e9}%.3f (planned ${cycles * CyclePeriodMs / 1e3}%.3f)"
    report.info("records") = inst.records.toString

    val userMb = inst.records * Workloads.UserBytesPerRecord / 1e6
    Layers.build(report, h)
    Layers.merge(report, h)
    report.layer("core.evolve.ms_p50", m("evolve_ns").p50 / 1e6, "ms")
    report.layer("core.evolve.runs_gced", m("runs_gced").sum.toDouble, "count")
    Layers.query(report, q)
    Layers.cache(report, inst.readerIo, q("batch_ns").size, m("maintain_ns").sum,
      m("cached_level").p50, inst.cache)
    Layers.persist(report, h, userMb)
    Layers.recover(report, m)
    Layers.zeroWildfire(report)
  }

  /** One index lifecycle over a fresh shared-storage directory. */
  final class Instance(dir: Path, seed: Long, cycles: Int, budget: Long, tracer: Tracer, checks: Checks) {
    Files.createDirectories(dir)
    val shared = new SharedStorage(dir)
    val tiers: TierConfig = TierConfig(ssdCapacityBytes = budget)
    val cache = new CacheManager(tiers, Some(shared))
    val hooks = new MeasuringHooks(cache, Some(dir.resolve("index-runs")), tracer)
    val index = new UmziIndex(Config, hooks)
    val model = new KeyModel(cycles * RecordsPerCycle)
    /** Maintenance-thread samples (groom, evolve, cache maintenance, recovery). */
    val maint = new Stats
    var records = 0L
    var readerIo: IoStats.Snapshot = IoStats.Snapshot(0, 0, 0, 0)

    private val workload = new Workload(Devices, sequentialKeys = false, UpdatePercent, seed)
    private val groomed = mutable.Map.empty[Long, Array[IndexEntry]]
    private var coveredHi = -1L
    private var postBlock = 1_000_000L
    private var psn = -1L

    private def timedOp[A](sample: String, span: String)(body: => A): Unit = {
      val t0 = System.nanoTime()
      checks.task(span)(tracer.span(span, tracer.newOp())(body))
      val dt = System.nanoTime() - t0
      maint.add(sample, dt)
      maint.add("busy_ns", dt)
    }

    private def cycle(c: Int): Unit = {
      val batch = workload.nextBatch(RecordsPerCycle)
      val tsBase = c.toLong << 20
      val es = Array.tabulate(batch.length) { i =>
        val u = batch(i)
        IndexEntry(Array(u.deviceId), Array(u.msgNum), tsBase | u.commitSeq,
          Rid(ZoneId.Groomed, c.toLong, i), Array(u.value))
      }
      timedOp("groom_ns", "core.index:addGroomedRun") {
        hooks.beginOp(evolve = false)
        index.addGroomedRun(es, BlockRange(c, c))
      }
      records += batch.length
      groomed(c.toLong) = es
      batch.foreach(u => model.upsert(Mix.pack(u.deviceId, u.msgNum), tsBase | u.commitSeq, u.value, c))
      model.publish()

      if ((c + 1) % EvolveEvery == 0) {
        // post-groom stand-in: covered entries re-pointed to post-groomed RIDs
        val lo = coveredHi + 1
        val hi = c.toLong
        val moved = (lo to hi).flatMap(b => groomed.remove(b).getOrElse(Array.empty[IndexEntry]))
        val evolved = moved.zipWithIndex.map { case (e, i) =>
          IndexEntry(e.eqValues, e.sortValues, e.beginTS, Rid(ZoneId.PostGroomed, postBlock, i), e.includedValues)
        }.toArray
        val groomedRuns = index.groomedList.size
        timedOp("evolve_ns", "core.evolve:evolve") {
          hooks.beginOp(evolve = true)
          index.evolve(evolved, BlockRange(lo, hi))
          psn += 1
          shared.writeCheckpoint(index.maxCoveredGroomedId, psn)
        }
        maint.add("runs_gced", groomedRuns - index.groomedList.size)
        coveredHi = hi
        postBlock += 1
      }
      timedOp("maintain_ns", "storage.cache:maintainCache")(cache.maintainCache())
      maint.add("cached_level", cache.currentCachedLevel)
    }

    /** Groom `cycles` cycles, one due every `periodNs` (0 = back to back),
      * with the reader threads running; returns the readers' stats.
      */
    def ingest(periodNs: Long): Seq[Stats] = {
      cycle(0)
      val stop = new AtomicBoolean(false)
      val probes = Vector.fill(Readers)(new QueryProbe(cache, tracer, checks))
      val io0 = cache.stats.snapshot
      val readers = probes.zipWithIndex.map { case (p, r) =>
        val t = new Thread(() => readLoop(p, new SplittableRandom(Mix.hash(seed * 1000 + r)), stop),
          s"umzibench-reader-$r")
        t.start()
        t
      }
      val start = System.nanoTime()
      try {
        (1 until cycles).foreach { c =>
          val wait = start + c * periodNs - System.nanoTime()
          if (wait > 0) Thread.sleep(wait / 1_000_000L, (wait % 1_000_000L).toInt)
          cycle(c)
        }
      } finally {
        stop.set(true)
        readers.foreach(_.join())
      }
      readerIo = cache.stats.snapshot - io0
      probes.map(_.stats)
    }

    private def readLoop(probe: QueryProbe, rng: SplittableRandom, stop: AtomicBoolean): Unit = {
      val want = new Array[Long](BatchKeys)
      val minTs = new Array[Long](BatchKeys)
      while (!stop.get()) {
        val n = model.published
        val batch = Array.tabulate(BatchKeys) { i =>
          val s = rng.nextInt(n)
          want(i) = model.keys(s)
          minTs(i) = model.ts(s)
          (Array(Mix.device(want(i))), Array(Mix.msg(want(i))))
        }
        checks.guarded("batchLookup")(probe.batchLookup(index, batch)).foreach { res =>
          var bad = -1
          var i = 0
          while (i < BatchKeys && bad < 0) {
            val ok = res(i).exists(e => e.beginTS >= minTs(i) &&
              e.eqValues(0) == Mix.device(want(i)) && e.sortValues(0) == Mix.msg(want(i)))
            if (!ok) bad = i
            i += 1
          }
          checks.op(bad < 0, s"reader lookup of (${Mix.device(want(bad max 0))},${Mix.msg(want(bad max 0))}) " +
            s"returned ${res(bad max 0)}, expected beginTS >= ${minTs(bad max 0)}")
        }
      }
    }

    /** Checks 20 lookup batches exactly, then runs short and long range
      * scans (10 : 1) for `budgetNs`, each checked against the model.
      */
    def quiescent(budgetNs: Long, probe: QueryProbe, rng: SplittableRandom): Unit = {
      val q = new ModelQueries(model, index, checks, Devices, MaxMsg + 1)
      val lookups = new QueryProbe(cache, Tracer.Off, checks) // kept out of the reader samples
      (0 until 20).foreach(_ => q.lookupBatch(lookups, rng, BatchKeys))
      Loop.repeatFor(budgetNs)(Seq.fill(10)(() => q.shortScan(probe, rng)) :+ (() => q.longScan(probe, rng)))
    }

    /** Recover a fresh index from shared storage `reps` times. */
    def recoverReps(reps: Int): Unit = {
      val rng = new SplittableRandom(seed ^ 0x5EED)
      val sample = Array.fill(5 * BatchKeys) {
        val k = model.keys(rng.nextInt(model.published))
        (Array(Mix.device(k)), Array(Mix.msg(k)))
      }
      Recovery.reps(index, shared, tiers, sample, reps, tracer, checks, maint)
    }
  }
}
