package repro.bench

import repro.core._
import repro.storage.TierConfig
import scala.util.Random

/** Micro-benchmarks reproducing the paper's Figures 8–11 (§8.2, §8.3).
  *
  * Each `run*` method returns the table rows that regenerate one figure;
  * bench suites print them and EXPERIMENTS.md records them against the
  * paper's (normalized) numbers.
  */
object MicroBenches {

  val Defs: Seq[(String, IndexDef)] =
    Seq("I1" -> IndexDef.I1, "I2" -> IndexDef.I2, "I3" -> IndexDef.I3)

  // ------------------------------------------------------------------ Fig 8

  final case class BuildRow(n: Int, nanos: Map[String, Long])

  /** Figure 8: time to build one index run of `n` entries under I1/I2/I3.
    * Median of three builds per cell to damp JIT/GC noise.
    */
  def runBuild(sizes: Seq[Int], seed: Long = 1, reps: Int = 3): Seq[BuildRow] = {
    // JIT warm-up on all three layouts before any measurement
    Defs.foreach { case (_, defn) =>
      val es = RunFactory.entries(defn, RunFactory.keys(10_000, sequential = false, seed), 0L, 0L)
      IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es)
    }
    sizes.map { n =>
      val ks = RunFactory.keys(n, sequential = false, seed)
      val times = Defs.map { case (name, defn) =>
        val es = RunFactory.entries(defn, ks, 0L, 0L)
        // builds churn the heap (one byte row per entry); collect between
        // cells and take the minimum so GC pauses don't masquerade as work
        System.gc()
        val samples = (0 until reps).map { _ =>
          BenchUtil.timed(IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es))._1
        }
        name -> samples.min
      }.toMap
      BuildRow(n, times)
    }
  }

  // ------------------------------------------------------------------ Fig 9

  /** One Fig 9 cell, medians over the batches: wall plus simulated cost,
    * wall time alone, and distinct index blocks the batch touched.
    */
  final case class LookupCell(costNanos: Long, wallNanos: Long, blocks: Long)

  final case class SingleRunRow(n: Int, seq: Map[String, LookupCell], rand: Map[String, LookupCell])

  /** Figure 9: batch of 1000 point lookups against a single run of varying
    * size, sequential vs random query keys, per index definition.
    */
  def runSingleRun(sizes: Seq[Int], batchSize: Int = 1000, seed: Long = 2): Seq[SingleRunRow] = {
    // JIT warm-up of the whole lookup path per definition: the first cell is
    // the normalization anchor and must not pay one-time compilation cost
    Defs.foreach { case (_, defn) =>
      val bi = RunFactory.buildIndex(defn, 1, 10_000, sequential = true, seed)
      val rng = new Random(seed)
      (0 until 30).foreach { _ =>
        val ks = RunFactory.lookupBatch(bi.ingestedKeys, batchSize, rng.nextBoolean(), rng)
        QueryExec.batchLookup(bi.index, ks.map(RunFactory.toLookupKey(defn, _)), Long.MaxValue)
      }
    }
    System.gc()
    sizes.map { n =>
      val perDef = Defs.map { case (name, defn) =>
        val bi = RunFactory.buildIndex(defn, nRuns = 1, entriesPerRun = n,
          sequential = true, seed = seed)
        val rng = new Random(seed + n)
        def batchCell(sequential: Boolean): LookupCell = {
          val samples = (0 until 5).map { _ =>
            val ctx = bi.index.newReadContext()
            val (cost, _) = BenchUtil.cost(bi.cache) {
              val ks = RunFactory.lookupBatch(bi.ingestedKeys, batchSize, sequential, rng)
              QueryExec.batchLookup(bi.index, ks.map(RunFactory.toLookupKey(defn, _)), Long.MaxValue, ctx)
            }
            (cost, cost - bi.cache.threadSimulatedNanos, ctx.blocksTouched.toLong)
          }
          def median(xs: Seq[Long]): Long = xs.sorted.apply(xs.length / 2)
          LookupCell(median(samples.map(_._1)), median(samples.map(_._2)), median(samples.map(_._3)))
        }
        name -> ((batchCell(true), batchCell(false)))
      }
      SingleRunRow(n,
        perDef.map { case (k, v) => k -> v._1 }.toMap,
        perDef.map { case (k, v) => k -> v._2 }.toMap)
    }
  }

  // ------------------------------------------------------- Fig 10/11 shared

  final case class SweepRow(x: Long, seqNanos: Long, randNanos: Long)

  /** Run `body` `reps` times over pre-built inputs and keep the cheapest
    * pass — GC pauses from index construction otherwise masquerade as
    * lookup cost.
    */
  private def minCost(cache: repro.storage.CacheManager, reps: Int)(body: => Unit): Long =
    (0 until reps).map(_ => BenchUtil.cost(cache)(body)._1).min

  /** Figures 10a/11a: per-key lookup time vs batch size over `nRuns` runs. */
  def runBatchSizeSweep(
      sequentialIngest: Boolean,
      batchSizes: Seq[Int],
      nRuns: Int = 20,
      entriesPerRun: Int = 100_000,
      seed: Long = 3): Seq[SweepRow] = {
    val bi = RunFactory.buildIndex(IndexDef.I1, nRuns, entriesPerRun, sequentialIngest, seed)
    val rng = new Random(seed)
    batchSizes.map { b =>
      def costOf(seqQuery: Boolean): Long = {
        // fix total keys looked up (~2000) so small batches aggregate many
        // batches and timings stay measurable; batches fixed across reps
        val iters = math.max(1, 2000 / b)
        val batches = Array.fill(iters)(
          RunFactory.lookupBatch(bi.ingestedKeys, b, seqQuery, rng)
            .map(RunFactory.toLookupKey(IndexDef.I1, _)))
        val total = minCost(bi.cache, reps = 3) {
          batches.foreach(ks => QueryExec.batchLookup(bi.index, ks, Long.MaxValue))
        }
        total / (iters.toLong * b) // per-key nanos
      }
      SweepRow(b, costOf(true), costOf(false))
    }
  }

  /** Figures 10b/11b: batch (1000) lookup time vs number of runs. */
  def runNumRunsSweep(
      sequentialIngest: Boolean,
      runCounts: Seq[Int],
      entriesPerRun: Int = 100_000,
      batchSize: Int = 1000,
      seed: Long = 4): Seq[SweepRow] =
    runCounts.map { nRuns =>
      val bi = RunFactory.buildIndex(IndexDef.I1, nRuns, entriesPerRun, sequentialIngest, seed)
      val rng = new Random(seed + nRuns)
      def costOf(seqQuery: Boolean): Long = {
        // five fixed batches; cheapest total, averaged per batch
        val batches = Array.fill(5)(
          RunFactory.lookupBatch(bi.ingestedKeys, batchSize, seqQuery, rng)
            .map(RunFactory.toLookupKey(IndexDef.I1, _)))
        minCost(bi.cache, reps = 3) {
          batches.foreach(ks => QueryExec.batchLookup(bi.index, ks, Long.MaxValue))
        } / batches.length
      }
      SweepRow(nRuns, costOf(true), costOf(false))
    }

  /** Figures 10c/11c: range scan time vs scan range (priority queue method).
    * Scan starts are chosen so the whole range fits inside one device's
    * message space (one equality value, range on the sort column).
    */
  def runScanRangeSweep(
      sequentialIngest: Boolean,
      ranges: Seq[Long],
      nRuns: Int = 20,
      entriesPerRun: Int = 100_000,
      seed: Long = 5): Seq[SweepRow] = {
    val bi = RunFactory.buildIndex(IndexDef.I1, nRuns, entriesPerRun, sequentialIngest, seed)
    val totalKeys = nRuns.toLong * entriesPerRun
    val domain = if (sequentialIngest) totalKeys else 2 * totalKeys
    val nDevices = math.max(1L, domain / RunFactory.MsgsPerDevice)
    val rng = new Random(seed)
    var seqDev = 0L
    ranges.map { range =>
      val clamped = math.min(range, RunFactory.MsgsPerDevice)
      def scanOnce(dev: Long, lo: Long): Unit =
        QueryExec.rangeScan(bi.index, Array(dev), Array(lo), Array(lo + clamped - 1),
          Long.MaxValue, Reconcile.PriorityQueueApproach)
      def costOf(seqQuery: Boolean): Long = {
        val dev =
          if (seqQuery) { val d = seqDev; seqDev = (seqDev + 1) % nDevices; d }
          else math.abs(rng.nextLong()) % nDevices
        // keep the start inside the device's *populated* message range so
        // random starts scan real data, like the paper's dense key space
        val populated = math.max(1L,
          math.min(RunFactory.MsgsPerDevice, domain - dev * RunFactory.MsgsPerDevice))
        val maxLo = math.max(1L, populated - clamped + 1)
        val lo = if (seqQuery) 0L else math.abs(rng.nextLong()) % maxLo
        minCost(bi.cache, reps = 3)(scanOnce(dev, lo))
      }
      SweepRow(range, costOf(true), costOf(false))
    }
  }
}
