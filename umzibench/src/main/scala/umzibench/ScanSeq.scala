package umzibench

import java.nio.file.{Files, Path}
import java.util.SplittableRandom
import repro.core._
import repro.storage.{CacheManager, SharedStorage, TierConfig}

/** `scan-seq`: the read-only shape of the paper's Fig 10.
  *
  * Set-up builds [[Runs]] runs of [[PerRun]] sequentially ingested keys with
  * merging disabled (as `RunFactory.buildIndex` does), persisted to shared
  * storage, with an unbounded SSD so the whole index is cached. One thread
  * then interleaves sequential 1000-key batch lookups, short range scans
  * (at most 100 keys) and long range scans (100 K keys) with the default
  * priority-queue reconciliation; every answer is checked against the
  * ingested keys. Key k maps to deviceId k / 2^20, msgNum k mod 2^20, and
  * carries beginTS k and a value drawn from the seed.
  */
object ScanSeq {
  val Config: UmziConfig = UmziConfig(LifecycleRand.Defn, maxRunsPerLevel = 1_000_000, sizeRatio = 4,
    postGroomedStartLevel = 6, maxLevel = 9)
  val Runs = 20
  val PerRun = 100_000
  val Keys: Long = Runs.toLong * PerRun
  val MsgsPerDevice: Long = 1L << 20
  val BatchKeys = 1000
  val LongKeys = 100_000
  val SetupReps = 5
  val RecoveryReps = 7
  val Tiers: TierConfig = TierConfig()

  def device(k: Long): Long = k / MsgsPerDevice
  def msg(k: Long): Long = k % MsgsPerDevice
  /** Last key of k's device. */
  def deviceEnd(k: Long): Long = math.min(Keys, (device(k) + 1) * MsgsPerDevice) - 1

  final class Built(dir: Path, tracer: Tracer) {
    Files.createDirectories(dir)
    val shared = new SharedStorage(dir)
    val cache = new CacheManager(Tiers, Some(shared))
    val hooks = new MeasuringHooks(cache, Some(dir.resolve("index-runs")), tracer)
    val index = new UmziIndex(Config, hooks)
  }

  def run(o: Options, tracer: Tracer, checks: Checks, report: Report): Unit = {
    report.info("index") = s"$Runs runs x $PerRun sequential keys, no merging"
    report.info("tier_config") = Tiers.toString + " (SSD unbounded)"
    val valueSalt = Mix.hash(o.seed)
    def value(k: Long): Long = Mix.hash(valueSalt + k) >>> 24

    // Set-up, repeated: build and persist the index; keep the last one.
    val setup = new Samples()
    val maint = new Stats
    var built: Built = null
    (0 until SetupReps).foreach { rep =>
      if (built != null) FileTree.deleteTree(o.workDir.resolve(s"scan-seq-${rep - 1}"))
      val t0 = System.nanoTime()
      built = new Built(o.workDir.resolve(s"scan-seq-$rep"), tracer)
      (0 until Runs).foreach { b =>
        val es = Array.tabulate(PerRun) { i =>
          val k = b.toLong * PerRun + i
          IndexEntry(Array(device(k)), Array(msg(k)), k, Rid(ZoneId.Groomed, b.toLong, i), Array(value(k)))
        }
        val g0 = System.nanoTime()
        checks.task("addGroomedRun") {
          tracer.span("core.index:addGroomedRun", tracer.newOp()) {
            built.hooks.beginOp(evolve = false)
            built.index.addGroomedRun(es, BlockRange(b, b))
          }
        }
        // the first repetition warms the JIT; grooms are timed on the others
        if (rep > 0) maint.add("groom_ns", System.nanoTime() - g0)
      }
      setup.add(System.nanoTime() - t0)
    }
    val index = built.index
    System.gc()

    def exact(e: IndexEntry, k: Long): Boolean =
      e.eqValues(0) == device(k) && e.sortValues(0) == msg(k) && e.beginTS == k && e.includedValues(0) == value(k)

    val rng = new SplittableRandom(Mix.hash(o.seed + 1))
    val probe = new QueryProbe(built.cache, tracer, checks)
    def lookup(): Unit = {
      val start = rng.nextLong(Keys - BatchKeys)
      val batch = Array.tabulate(BatchKeys)(i => (Array(device(start + i)), Array(msg(start + i))))
      checks.guarded("batchLookup")(probe.batchLookup(index, batch)).foreach { res =>
        val bad = res.indices.find(i => !res(i).exists(exact(_, start + i)))
        checks.op(bad.isEmpty, s"lookup of key ${bad.map(start + _)} returned ${bad.map(res(_))}")
      }
    }
    def scan(first: Long, keys: Long, kind: String): Unit = {
      val last = math.min(first + keys - 1, deviceEnd(first))
      checks.guarded(s"$kind rangeScan")(probe.rangeScan(index, device(first), msg(first), msg(last), kind))
        .foreach { out =>
          val ok = out.size == last - first + 1 && out.indices.forall(j => exact(out(j), first + j))
          checks.op(ok, s"$kind scan of keys [$first,$last] returned ${out.size} entries")
        }
    }
    def longScan(): Unit = {
      val d = rng.nextLong(device(Keys - 1) + 1)
      val size = deviceEnd(d * MsgsPerDevice) - d * MsgsPerDevice + 1
      scan(d * MsgsPerDevice + rng.nextLong(size - LongKeys + 1), LongKeys, "long")
    }

    val jvm = new Jvm.Window
    val io0 = built.cache.stats.snapshot
    Loop.repeatFor(o.seconds * 1_000_000_000L)(Seq.fill(10)(() => lookup()) ++
      Seq.fill(10)(() => scan(rng.nextLong(Keys), 1 + rng.nextInt(100), "short")) :+ (() => longScan()))
    val io = built.cache.stats.snapshot - io0
    jvm.report(report)

    val sampleRng = new SplittableRandom(Mix.hash(o.seed + 2))
    val sample = Array.fill(5 * BatchKeys) {
      val k = sampleRng.nextLong(Keys)
      (Array(device(k)), Array(msg(k)))
    }
    Recovery.reps(index, built.shared, Tiers, sample, RecoveryReps, tracer, checks, maint)

    val s = probe.stats
    val h = built.hooks.stats
    val records = (SetupReps - 1) * Keys
    report.e2e("setup_s", setup.p50 / 1e9, "s", s"n=${setup.size}")
    report.e2e("lookup_batch_p50_ms", s("batch_ns").p50 / 1e6, "ms", s"n=${s("batch_ns").size}")
    report.e2e("lookup_batch_sim_io_ms", s("batch_sim_ns").mean / 1e6, "ms", "simulated, not in wall time")
    report.e2e("groom_p50_ms", maint("groom_ns").p50 / 1e6, "ms", s"set-up builds, n=${maint("groom_ns").size}")
    report.e2e("groom_p90_ms", maint("groom_ns").quantile(0.9) / 1e6, "ms", s"set-up builds, n=${maint("groom_ns").size}")
    report.e2e("ingest_rec_per_s", records / (maint("groom_ns").sum / 1e9), "rec/s", "set-up builds")
    report.e2e("recovery_ms", maint("recovery_ns").p50 / 1e6, "ms", s"n=${maint("recovery_ns").size}")
    report.e2e("space_amp", FileTree.treeBytes(o.workDir.resolve(s"scan-seq-${SetupReps - 1}")).toDouble /
      (Keys * Workloads.UserBytesPerRecord), "ratio")
    report.e2e("index_mem_mb", IndexBytes.of(index.visibleRuns()) / 1e6, "MB")
    report.more("lookup_batch_p99_ms", s("batch_ns").quantile(0.99) / 1e6, "ms", s"n=${s("batch_ns").size}")
    report.more("scan_short_p50_ms", s("scan_short_ns").p50 / 1e6, "ms", s"n=${s("scan_short_ns").size}")
    report.more("scan_long_p50_ms", s("scan_long_ns").p50 / 1e6, "ms", s"n=${s("scan_long_ns").size}")

    Layers.build(report, h)
    Layers.merge(report, h)
    report.layer("core.evolve.ms_p50", 0, "ms")
    report.layer("core.evolve.runs_gced", 0, "count")
    Layers.query(report, s)
    Layers.cache(report, io, s("batch_ns").size, maintainNs = 0L,
      built.cache.currentCachedLevel.toDouble, built.cache)
    Layers.persist(report, h, Keys * Workloads.UserBytesPerRecord / 1e6) // last set-up only
    Layers.recover(report, maint)
    Layers.zeroWildfire(report)
  }
}
