package repro.bench

import repro.bench.BenchUtil.{fmt, printTable}
import repro.bench.MicroBenches.{LookupCell, SingleRunRow}

/** Renders each evaluation figure of the paper as a printed table of
  * normalized numbers (the paper reports normalized values only, §8), and
  * returns the data for the bench suites' shape assertions.
  *
  * Normalization anchors follow the paper exactly:
  *  - Fig 8: build time of a 1K-entry run under I1;
  *  - Fig 9: sequential-query batch over the 1K-entry run under I1;
  *  - Fig 10a/11a: per-key time of the sequential query at batch size 1;
  *  - Fig 10b/11b: sequential query against one run;
  *  - Fig 10c/11c: sequential query with scan range 1;
  *  - Fig 12–15: first window of the experiment's baseline series.
  *
  * `main` prints the named figures (default: all) at the paper's full
  * parameters; `--large` adds the 10M-entry point to Fig 8 and 9. The index
  * benchmarks need no SparkSession at runtime:
  *
  * {{{
  *   sbt "runMain repro.bench.FigureTables fig10 fig11"
  *   sbt "runMain repro.bench.FigureTables fig8 fig9 --large"
  * }}}
  */
object FigureTables {

  def main(args: Array[String]): Unit = {
    val sizes = Seq(1_000, 10_000, 100_000, 1_000_000) ++
      (if (args.contains("--large")) Seq(10_000_000) else Nil)
    val e2e = EndToEndHarness.Config(
      cyclesTotal = 100, recordsPerCycle = 10_000, postGroomEvery = 20,
      updatePercent = 10.0, windowCycles = 10, cyclePauseMillis = 25)
    def sweeps(sequentialIngest: Boolean): Unit = {
      fig10a(sequentialIngest, Seq(1, 10, 100, 1000, 10000))
      fig10b(sequentialIngest, Seq(1, 10, 20, 40, 60, 80, 100))
      fig10c(sequentialIngest, Seq(1L, 10L, 100L, 1000L, 10000L, 100000L, 1000000L))
    }
    val figures: Seq[(String, () => Unit)] = Seq(
      "fig8" -> (() => fig8(sizes)),
      "fig9" -> (() => fig9(sizes)),
      "fig10" -> (() => sweeps(sequentialIngest = true)),
      "fig11" -> (() => sweeps(sequentialIngest = false)),
      "fig12" -> (() => fig12(Seq(1, 4, 16, 28, 40, 52), e2e)),
      "fig13" -> (() => fig13(Seq(0, 20, 40, 60, 80, 100), e2e)),
      "fig14" -> (() => fig14(e2e)),
      "fig15" -> (() => fig15(e2e)))
    val named = args.filterNot(_ == "--large").toSeq
    val unknown = named.filterNot(n => figures.exists(_._1 == n))
    require(unknown.isEmpty,
      s"unknown figure(s) ${unknown.mkString(", ")}; choose from ${figures.map(_._1).mkString(", ")}")
    figures.filter { case (n, _) => named.isEmpty || named.contains(n) }.foreach(_._2())
  }

  // ------------------------------------------------------------------ Fig 8

  def fig8(sizes: Seq[Int]): Map[(Int, String), Double] = {
    val rows = MicroBenches.runBuild(sizes)
    val base = rows.head.nanos("I1").toDouble
    val data = (for {
      r <- rows
      (name, nanos) <- r.nanos
    } yield (r.n, name) -> nanos / base).toMap
    printTable("Table F8 (paper Fig 8): index run build time, normalized to I1@1K",
      Seq("#tuples", "I1", "I2", "I3"),
      rows.map(r => Seq(r.n.toString,
        fmt(r.nanos("I1") / base), fmt(r.nanos("I2") / base), fmt(r.nanos("I3") / base))))
    data
  }

  // ------------------------------------------------------------------ Fig 9

  /** Fig 9 per (#tuples, "seq"|"rand", definition): the normalized cost of
    * the printed tables, and the absolute wall nanos and distinct blocks
    * per batch, which the cost mixes with simulated I/O.
    */
  final case class Fig9(
      cost: Map[(Int, String, String), Double],
      wallNanos: Map[(Int, String, String), Long],
      blocks: Map[(Int, String, String), Long])

  def fig9(sizes: Seq[Int]): Fig9 = {
    val rows = MicroBenches.runSingleRun(sizes)
    val base = rows.head.seq("I1").costNanos.toDouble
    val cells = for {
      r <- rows
      (mode, m) <- Seq("seq" -> r.seq, "rand" -> r.rand)
      (name, cell) <- m
    } yield (r.n, mode, name) -> cell
    def table(title: String, pick: SingleRunRow => Map[String, LookupCell]): Unit =
      printTable(title, Seq("#tuples", "I1", "I2", "I3"),
        rows.map(r => r.n.toString +: Seq("I1", "I2", "I3").map(d => fmt(pick(r)(d).costNanos / base))))
    table("Table F9a (paper Fig 9a): single-run lookup, sequential queries, normalized to seq-I1@1K", _.seq)
    table("Table F9b (paper Fig 9b): single-run lookup, random queries, normalized to seq-I1@1K", _.rand)
    printTable("Table F9c: single-run lookup batch, absolute wall us / distinct blocks per batch (seq; rand)",
      Seq("#tuples", "I1", "I2", "I3"),
      rows.map(r => r.n.toString +: Seq("I1", "I2", "I3").map { d =>
        val (s, q) = (r.seq(d), r.rand(d))
        s"${fmt(s.wallNanos / 1e3)}/${s.blocks}; ${fmt(q.wallNanos / 1e3)}/${q.blocks}"
      }))
    Fig9(cells.map { case (k, c) => k -> c.costNanos / base }.toMap,
      cells.map { case (k, c) => k -> c.wallNanos }.toMap,
      cells.map { case (k, c) => k -> c.blocks }.toMap)
  }

  // -------------------------------------------------------------- Fig 10/11

  private def sweepTable(title: String, xLabel: String,
      rows: Seq[MicroBenches.SweepRow], base: Double): Seq[(Long, Double, Double)] = {
    val data = rows.map(r => (r.x, r.seqNanos / base, r.randNanos / base))
    printTable(title, Seq(xLabel, "sequential query", "random query"),
      data.map { case (x, s, q) => Seq(x.toString, fmt(s), fmt(q)) })
    data
  }

  def fig10a(sequentialIngest: Boolean, batchSizes: Seq[Int],
      nRuns: Int = 20, entriesPerRun: Int = 100_000): Seq[(Long, Double, Double)] = {
    val fig = if (sequentialIngest) "10a" else "11a"
    val rows = MicroBenches.runBatchSizeSweep(sequentialIngest, batchSizes, nRuns, entriesPerRun)
    sweepTable(
      s"Table F$fig (paper Fig $fig): per-key lookup time vs batch size " +
        s"(${if (sequentialIngest) "sequential" else "random"} ingest), normalized to seq@batch1",
      "batch size", rows, rows.head.seqNanos.toDouble)
  }

  def fig10b(sequentialIngest: Boolean, runCounts: Seq[Int],
      entriesPerRun: Int = 100_000): Seq[(Long, Double, Double)] = {
    val fig = if (sequentialIngest) "10b" else "11b"
    val rows = MicroBenches.runNumRunsSweep(sequentialIngest, runCounts, entriesPerRun)
    sweepTable(
      s"Table F$fig (paper Fig $fig): 1000-key batch lookup vs #runs " +
        s"(${if (sequentialIngest) "sequential" else "random"} ingest), normalized to seq@1run",
      "#index runs", rows, rows.head.seqNanos.toDouble)
  }

  def fig10c(sequentialIngest: Boolean, ranges: Seq[Long],
      nRuns: Int = 20, entriesPerRun: Int = 100_000): Seq[(Long, Double, Double)] = {
    val fig = if (sequentialIngest) "10c" else "11c"
    val rows = MicroBenches.runScanRangeSweep(sequentialIngest, ranges, nRuns, entriesPerRun)
    sweepTable(
      s"Table F$fig (paper Fig $fig): range scan time vs scan range " +
        s"(${if (sequentialIngest) "sequential" else "random"} ingest), normalized to seq@range1",
      "scan range", rows, rows.head.seqNanos.toDouble)
  }

  // -------------------------------------------------------------- Fig 12-15

  /** JIT warm-up for the end-to-end experiments: the first measured series
    * is the normalization baseline, so it must not pay one-time compilation
    * cost that later series skip.
    */
  private def warmUpHarness(cfg: EndToEndHarness.Config): Unit = {
    EndToEndHarness.run(cfg.copy(cyclesTotal = math.min(12, cfg.cyclesTotal),
      recordsPerCycle = cfg.recordsPerCycle / 2, cyclePauseMillis = 5))
    System.gc()
  }

  private def seriesTable(title: String, seriesLabel: String,
      series: Seq[(String, Seq[Double])], base: Double): Unit = {
    val nW = series.map(_._2.size).max
    printTable(title,
      seriesLabel +: (0 until nW).map(w => s"w$w"),
      series.map { case (name, ws) =>
        name +: (0 until nW).map(w => if (w < ws.size && ws(w) > 0) fmt(ws(w) / base) else "-")
      })
  }

  def fig12(readerCounts: Seq[Int], cfg: EndToEndHarness.Config): Map[Int, Seq[Double]] = {
    warmUpHarness(cfg)
    val results = readerCounts.map(n =>
      n -> EndToEndHarness.run(cfg.copy(nReaders = n)).windows).toMap
    val base = results(readerCounts.head).find(_ > 0).getOrElse(1.0)
    seriesTable(
      "Table F12 (paper Fig 12): lookup time under concurrent readers, normalized to 1 reader at start",
      "#readers", readerCounts.map(n => (n.toString, results(n))), base)
    results
  }

  def fig13(updatePercents: Seq[Int], cfg: EndToEndHarness.Config): Map[Int, Seq[Double]] = {
    warmUpHarness(cfg)
    val results = updatePercents.map(p =>
      p -> EndToEndHarness.run(cfg.copy(updatePercent = p)).windows).toMap
    val base = results(updatePercents.head).find(_ > 0).getOrElse(1.0)
    seriesTable(
      "Table F13 (paper Fig 13): lookup time vs update rate p%, normalized to p=0 at start",
      "p%", updatePercents.map(p => (s"$p%", results(p))), base)
    results
  }

  def fig14(cfg: EndToEndHarness.Config): Map[String, Seq[Double]] = {
    warmUpHarness(cfg)
    val levels = Seq("none" -> Int.MaxValue, "half" -> 1, "all" -> 0)
    val results = levels.map { case (name, lvl) =>
      name -> EndToEndHarness.run(cfg.copy(purgeLevel = lvl)).windows
    }.toMap
    val base = results("none").find(_ > 0).getOrElse(1.0)
    seriesTable(
      "Table F14 (paper Fig 14): lookup time vs purged runs, normalized to no-purge at start",
      "purged", Seq("all", "half", "none").map(n => (n, results(n))), base)
    results
  }

  def fig15(cfg: EndToEndHarness.Config): Map[String, EndToEndHarness.Result] = {
    warmUpHarness(cfg)
    val results = Map(
      "post-groom" -> EndToEndHarness.run(cfg.copy(postGroomEnabled = true)),
      "no post-groom" -> EndToEndHarness.run(cfg.copy(postGroomEnabled = false)))
    val base = results("post-groom").windows.find(_ > 0).getOrElse(1.0)
    seriesTable(
      "Table F15 (paper Fig 15): lookup time with/without index evolve, normalized to post-groom at start",
      "mode", Seq("post-groom", "no post-groom").map(n => (n, results(n).windows)), base)
    println(s"final visible runs: post-groom=${results("post-groom").finalRunCount} " +
      s"no-post-groom=${results("no post-groom").finalRunCount}")
    results
  }
}
