package repro.bench

import repro.bench.BenchUtil.{fmt, lookupBlocks, measure, printTable}
import repro.core._
import scala.util.Random

/** Reproduces the paper's evaluation figures 8–15 (§8): one function per
  * figure measures it, prints it as a table of absolute numbers, and returns
  * the data for the bench suites' shape assertions.
  *
  * Fig 8 reports build wall time. Figs 9–15 report each cell as wall µs,
  * simulated I/O µs and distinct index blocks, separately (see [[Cell]]);
  * the paper's figures are normalized, so EXPERIMENTS.md normalizes by hand
  * where it compares a row with one.
  *
  * `main` prints the named figures (default: all) at the paper's full
  * parameters; `UMZI_BENCH_LARGE` adds the 10M-entry point to Figs 8 and 9.
  * The index benchmarks need no SparkSession at runtime:
  *
  * {{{
  *   sbt "bench/runMain repro.bench.FigureTables fig10 fig11"
  * }}}
  */
object FigureTables {

  /** Run sizes of Figs 8 and 9. */
  val Sizes: Seq[Int] = Seq(1_000, 10_000, 100_000, 1_000_000) ++
    (if (sys.env.contains("UMZI_BENCH_LARGE")) Seq(10_000_000) else Nil)

  val Defs: Seq[(String, IndexDef)] =
    Seq("I1" -> IndexDef.I1, "I2" -> IndexDef.I2, "I3" -> IndexDef.I3)

  /** Keys per lookup batch (paper §8.3) and runs per index in Figs 10a/10c. */
  private val BatchSize = 1000
  private val NRuns = 20

  def main(args: Array[String]): Unit = {
    val entriesPerRun = 100_000
    val e2e = EndToEndHarness.Config(
      cyclesTotal = 100, recordsPerCycle = 10_000, postGroomEvery = 20,
      windowCycles = 10, cyclePauseMillis = 25)
    def sweeps(sequentialIngest: Boolean): Unit = {
      fig10a(sequentialIngest, entriesPerRun)
      fig10b(sequentialIngest, entriesPerRun)
      fig10c(sequentialIngest, entriesPerRun)
    }
    val figures: Seq[(String, () => Unit)] = Seq(
      "fig8" -> (() => fig8()),
      "fig9" -> (() => fig9()),
      "fig10" -> (() => sweeps(sequentialIngest = true)),
      "fig11" -> (() => sweeps(sequentialIngest = false)),
      "fig12" -> (() => fig12(e2e)),
      "fig13" -> (() => fig13(e2e)),
      "fig14" -> (() => fig14(e2e)),
      "fig15" -> (() => fig15(e2e)))
    val unknown = args.filterNot(n => figures.exists(_._1 == n))
    require(unknown.isEmpty,
      s"unknown figure(s) ${unknown.mkString(", ")}; choose from ${figures.map(_._1).mkString(", ")}")
    figures.filter { case (n, _) => args.isEmpty || args.contains(n) }.foreach(_._2())
  }

  // ------------------------------------------------------------------ Fig 8

  /** Fig 8: wall nanos to build one index run of `n` entries under I1/I2/I3,
    * keyed by (n, definition); the cheapest of three builds per cell.
    */
  def fig8(): Map[(Int, String), Long] = {
    val seed = 1L
    def build(defn: IndexDef, es: Array[IndexEntry]): IndexRun =
      IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es)
    // JIT warm-up on all three layouts before any measurement
    Defs.foreach { case (_, defn) =>
      build(defn, RunFactory.entries(defn, RunFactory.keys(10_000, sequential = false, seed), 0L, 0L))
    }
    val data = Sizes.flatMap { n =>
      val ks = RunFactory.keys(n, sequential = false, seed)
      Defs.map { case (name, defn) =>
        val es = RunFactory.entries(defn, ks, 0L, 0L)
        // builds churn the heap (one byte row per entry); collect between
        // cells and take the minimum so GC pauses don't masquerade as work
        System.gc()
        (n, name) -> (0 until 3).map { _ =>
          val t0 = System.nanoTime(); build(defn, es); System.nanoTime() - t0
        }.min
      }
    }.toMap
    printTable("Table F8 (paper Fig 8): index run build time, wall ms",
      "#tuples" +: Defs.map(_._1),
      Sizes.map(n => n.toString +: Defs.map { case (d, _) => fmt(data((n, d)) / 1e6) }))
    data
  }

  // ------------------------------------------------------------------ Fig 9

  /** Fig 9: a batch of 1000 point lookups against a single run of each size,
    * with sequential ("seq") and random ("rand") query keys, keyed by
    * (n, mode, definition); the field-wise median of five batches per cell.
    */
  def fig9(): Map[(Int, String, String), Cell] = {
    val seed = 2L
    val modes = Seq("seq" -> true, "rand" -> false)
    // JIT warm-up of the whole lookup path per definition, so the first cell
    // pays no one-time compilation cost that later cells skip
    Defs.foreach { case (_, defn) =>
      val bi = RunFactory.buildIndex(defn, 1, 10_000, sequential = true, seed)
      val rng = new Random(seed)
      (0 until 30).foreach { _ =>
        val ks = RunFactory.lookupBatch(bi.ingestedKeys, BatchSize, rng.nextBoolean(), rng)
        lookupBlocks(bi.index, ks.map(RunFactory.toLookupKey(defn, _)))
      }
    }
    System.gc()
    val data = Sizes.flatMap { n =>
      Defs.flatMap { case (name, defn) =>
        val bi = RunFactory.buildIndex(defn, nRuns = 1, entriesPerRun = n, sequential = true, seed)
        val rng = new Random(seed + n)
        modes.map { case (mode, sequential) =>
          (n, mode, name) -> Cell.median((0 until 5).map { _ =>
            val ks = RunFactory.lookupBatch(bi.ingestedKeys, BatchSize, sequential, rng)
              .map(RunFactory.toLookupKey(defn, _))
            measure(bi.cache)(lookupBlocks(bi.index, ks))
          })
        }
      }
    }.toMap
    modes.foreach { case (mode, sequential) =>
      val fig = if (sequential) "9a" else "9b"
      printTable(s"Table F$fig (paper Fig $fig): single-run 1000-key lookup batch, " +
        s"${if (sequential) "sequential" else "random"} queries; wall us / simulated us / blocks",
        "#tuples" +: Defs.map(_._1),
        Sizes.map(n => n.toString +: Defs.map { case (d, _) => data((n, mode, d)).show }))
    }
    data
  }

  // -------------------------------------------------------------- Fig 10/11

  /** The cheapest (by wall time) of three runs of `body`, which returns the
    * blocks it touched: GC pauses from index construction otherwise
    * masquerade as lookup time. Simulated I/O and blocks repeat on every run.
    */
  private def cheapest(bi: RunFactory.BenchIndex)(body: => Long): Cell =
    (0 until 3).map(_ => measure(bi.cache)(body)).minBy(_.wallNs)

  /** `n` I1 lookup batches of `batchSize` keys sampled from `bi`, fixed
    * across the passes of [[cheapest]]; the cell of all of them together.
    */
  private def lookupBatches(bi: RunFactory.BenchIndex, n: Int, batchSize: Int,
      seqQuery: Boolean, rng: Random): Cell = {
    val batches = Array.fill(n)(RunFactory.lookupBatch(bi.ingestedKeys, batchSize, seqQuery, rng)
      .map(RunFactory.toLookupKey(IndexDef.I1, _)))
    cheapest(bi)(batches.iterator.map(lookupBlocks(bi.index, _)).sum)
  }

  private def sweepTable(fig: String, what: String, sequentialIngest: Boolean,
      xLabel: String, rows: Seq[(Long, Cell, Cell)]): Unit =
    printTable(s"Table F$fig (paper Fig $fig): $what " +
      s"(${if (sequentialIngest) "sequential" else "random"} ingest); wall us / simulated us / blocks",
      Seq(xLabel, "sequential query", "random query"),
      rows.map { case (x, s, q) => Seq(x.toString, s.show, q.show) })

  /** Figs 10a/11a: per-key lookup cell vs batch size over 20 runs, as
    * (batch size, sequential query, random query).
    */
  def fig10a(sequentialIngest: Boolean, entriesPerRun: Int): Seq[(Long, Cell, Cell)] = {
    val seed = 3L
    val bi = RunFactory.buildIndex(IndexDef.I1, NRuns, entriesPerRun, sequentialIngest, seed)
    val rng = new Random(seed)
    val rows = Seq(1, 10, 100, 1000, 10000).map { b =>
      // fix total keys looked up (~2000) so small batches aggregate many
      // batches and timings stay measurable
      val iters = math.max(1, 2000 / b)
      def perKey(seqQuery: Boolean): Cell =
        lookupBatches(bi, iters, b, seqQuery, rng) / (iters.toDouble * b)
      (b.toLong, perKey(true), perKey(false))
    }
    sweepTable(if (sequentialIngest) "10a" else "11a", "per-key lookup vs batch size",
      sequentialIngest, "batch size", rows)
    rows
  }

  /** Figs 10b/11b: 1000-key batch lookup cell vs number of runs, as
    * (#runs, sequential query, random query); each cell is the mean of 25
    * batches (the mean of 5 swung by more than 2x from run to run).
    */
  def fig10b(sequentialIngest: Boolean, entriesPerRun: Int): Seq[(Long, Cell, Cell)] = {
    val seed = 4L
    val batches = 25
    val rows = Seq(1, 10, 20, 40, 60, 80, 100).map { nRuns =>
      val bi = RunFactory.buildIndex(IndexDef.I1, nRuns, entriesPerRun, sequentialIngest, seed)
      val rng = new Random(seed + nRuns)
      def perBatch(seqQuery: Boolean): Cell = lookupBatches(bi, batches, BatchSize, seqQuery, rng) / batches
      (nRuns.toLong, perBatch(true), perBatch(false))
    }
    sweepTable(if (sequentialIngest) "10b" else "11b", "1000-key batch lookup vs #runs",
      sequentialIngest, "#index runs", rows)
    rows
  }

  /** Figs 10c/11c: range scan cell (priority queue method) vs scan range over
    * 20 runs, as (range, sequential start, random start). Scan starts are
    * chosen so the whole range fits inside one device's message space (one
    * equality value, range on the sort column).
    */
  def fig10c(sequentialIngest: Boolean, entriesPerRun: Int): Seq[(Long, Cell, Cell)] = {
    val seed = 5L
    val bi = RunFactory.buildIndex(IndexDef.I1, NRuns, entriesPerRun, sequentialIngest, seed)
    val totalKeys = NRuns.toLong * entriesPerRun
    val domain = if (sequentialIngest) totalKeys else 2 * totalKeys
    val nDevices = math.max(1L, domain / RunFactory.MsgsPerDevice)
    val rng = new Random(seed)
    var seqDev = 0L
    val rows = Seq(1L, 10L, 100L, 1000L, 10000L, 100000L, 1000000L).map { range =>
      val clamped = math.min(range, RunFactory.MsgsPerDevice)
      def scanOnce(dev: Long, lo: Long): Long = {
        val ctx = bi.index.newReadContext()
        QueryExec.rangeScan(bi.index, Array(dev), Array(lo), Array(lo + clamped - 1),
          Long.MaxValue, Reconcile.PriorityQueueApproach, ctx)
        ctx.blocksTouched.toLong
      }
      def cellOf(seqQuery: Boolean): Cell = {
        val dev =
          if (seqQuery) { val d = seqDev; seqDev = (seqDev + 1) % nDevices; d }
          else math.abs(rng.nextLong()) % nDevices
        // keep the start inside the device's *populated* message range so
        // random starts scan real data, like the paper's dense key space
        val populated = math.max(1L,
          math.min(RunFactory.MsgsPerDevice, domain - dev * RunFactory.MsgsPerDevice))
        val maxLo = math.max(1L, populated - clamped + 1)
        val lo = if (seqQuery) 0L else math.abs(rng.nextLong()) % maxLo
        cheapest(bi)(scanOnce(dev, lo))
      }
      (range, cellOf(true), cellOf(false))
    }
    sweepTable(if (sequentialIngest) "10c" else "11c", "range scan vs scan range",
      sequentialIngest, "scan range", rows)
    rows
  }

  // -------------------------------------------------------------- Fig 12-15

  /** Runs the end-to-end harness once per series key, after a JIT warm-up
    * so the first series pays no one-time compilation cost that later ones
    * skip, and prints each series' per-window lookup cells.
    */
  private def series[K](cfg: EndToEndHarness.Config, title: String, label: String, keys: Seq[K])(
      configure: K => EndToEndHarness.Config): Map[K, EndToEndHarness.Result] = {
    EndToEndHarness.run(cfg.copy(cyclesTotal = math.min(12, cfg.cyclesTotal),
      recordsPerCycle = cfg.recordsPerCycle / 2, cyclePauseMillis = 5))
    System.gc()
    val results = keys.map(k => k -> EndToEndHarness.run(configure(k))).toMap
    val nW = results.values.map(_.windows.size).max
    printTable(s"$title; per-batch wall us / simulated us / blocks, mean per window",
      label +: (0 until nW).map(w => s"w$w"),
      keys.map(k => k.toString +: (0 until nW).map(w => results(k).windows.lift(w).flatten.fold("-")(_.show))))
    results
  }

  /** Fig 12: one harness run per number of concurrent readers. */
  def fig12(cfg: EndToEndHarness.Config): Map[Int, EndToEndHarness.Result] =
    series(cfg, "Table F12 (paper Fig 12): lookup under concurrent readers", "#readers",
      Seq(1, 4, 16, 28, 40, 52))(n => cfg.copy(nReaders = n))

  /** Fig 13: one harness run per update rate p%. */
  def fig13(cfg: EndToEndHarness.Config): Map[Int, EndToEndHarness.Result] =
    series(cfg, "Table F13 (paper Fig 13): lookup vs update rate p%", "p%",
      Seq(0, 20, 40, 60, 80, 100))(p => cfg.copy(updatePercent = p))

  /** Fig 14: one harness run with no, half or all runs purged. */
  def fig14(cfg: EndToEndHarness.Config): Map[String, EndToEndHarness.Result] = {
    val levels = Map("none" -> Int.MaxValue, "half" -> 1, "all" -> 0)
    series(cfg, "Table F14 (paper Fig 14): lookup vs purged runs", "purged",
      Seq("none", "half", "all"))(n => cfg.copy(purgeLevel = levels(n)))
  }

  /** Fig 15: one harness run with and one without post-groom/index evolve. */
  def fig15(cfg: EndToEndHarness.Config): Map[String, EndToEndHarness.Result] = {
    val results = series(cfg, "Table F15 (paper Fig 15): lookup with/without index evolve", "mode",
      Seq("post-groom", "no post-groom"))(m => cfg.copy(postGroomEnabled = m == "post-groom"))
    println(s"final visible runs: post-groom=${results("post-groom").finalRunCount} " +
      s"no-post-groom=${results("no post-groom").finalRunCount}")
    results
  }
}
