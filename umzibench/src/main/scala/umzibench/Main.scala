package umzibench

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._

final case class Options(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    /** Scratch space for shared storage, Spark and warm-ups; emptied by the caller. */
    workDir: Path,
    /** Where the traced run writes its span file. */
    outDir: Path)

object Options {
  def parse(args: Array[String]): Options = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Options(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      Paths.get(need("work-dir")), Paths.get(need("out-dir")))
    require(Workloads.Names.contains(o.workload), s"unknown workload ${o.workload}")
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }
}

object Workloads {
  val Names: Seq[String] = Seq("lifecycle-rand", "scan-seq", "shard-e2e")

  /** Bytes of one user record: deviceId, msgNum and value, 8 bytes each. */
  val UserBytesPerRecord = 24

  /** The end-to-end metrics every workload reports, in print order. */
  val EndToEnd: Seq[String] = Seq("setup_s", "lookup_batch_p50_ms", "lookup_batch_sim_io_ms",
    "groom_p50_ms", "groom_p90_ms", "ingest_rec_per_s", "recovery_ms", "space_amp", "index_mem_mb")
}

/** Runs one workload and prints its metrics; the last line of standard
  * output is the JSON result `{"correct", "attempted", "failed", "metrics"}`
  * carrying the end-to-end metrics (untraced) or the per-layer metrics
  * (traced). Exits 1 without a result if the run itself breaks.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val code =
      try { run(Options.parse(args)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  def run(o: Options): Unit = {
    Files.createDirectories(o.workDir)
    Files.createDirectories(o.outDir)
    val tracer = new Tracer(o.trace)
    val checks = new Checks
    val report = new Report
    o.workload match {
      case "lifecycle-rand" => LifecycleRand.run(o, tracer, checks, report)
      case "scan-seq" => ScanSeq.run(o, tracer, checks, report)
      case "shard-e2e" => ShardE2E.run(o, tracer, checks, report)
    }
    if (o.trace) traceMetrics(o, tracer, report)

    val e2eNames = report.endToEnd.map(_.name)
    require(e2eNames == Workloads.EndToEnd, s"end-to-end metrics ${e2eNames.mkString(",")} differ from the list")
    val layerNames = report.layers.map(_.name).toSet
    if (o.trace) require(layerNames == Layers.Names.toSet,
      s"per-layer metrics differ from the list: missing ${Layers.Names.filterNot(layerNames)}, " +
        s"extra ${layerNames -- Layers.Names}")

    val rt = Runtime.getRuntime
    val env = Seq(
      "nproc" -> rt.availableProcessors().toString,
      "java" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "max_heap_mb" -> (rt.maxMemory() / (1 << 20)).toString,
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "flush_policy" -> "SharedStorage writes a temp file then moves it atomically, no fsync") ++ report.info
    val attempted = checks.attempted.get
    val failed = checks.failed.get

    println(s"== umzibench ${o.workload} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} ==")
    println("env: " + Json.obj(env.map { case (k, v) => k -> Json.str(v) }))
    println("end-to-end metrics" + (if (o.trace) " (traced run: includes tracing overhead)" else "") + ":")
    report.endToEnd.foreach(m => println(line(m, m.note)))
    println("end-to-end metrics printed but not gated (too noisy run to run, or on one workload only):")
    report.extra.foreach(m => println(line(m, m.note)))
    println(f"  ${"ops_failed_frac"}%-34s ${if (attempted == 0) 0.0 else failed.toDouble / attempted}%14.6f ratio" +
      s"  ($failed of $attempted operations failed)")
    checks.failures.foreach(f => println(s"  FAILED: $f"))
    if (o.trace) {
      println("per-layer metrics (layer -> end-to-end metrics it should move):")
      report.layers.foreach(m => println(line(m, Layers.targetOf(m.name))))
    }

    val metrics = (if (o.trace) report.layers else report.endToEnd).map { m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
    }
    println(Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> math.max(1L, attempted).toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.toSeq))))
  }

  private def line(m: Metric, note: String): String =
    f"  ${m.name}%-34s ${m.value}%14.4f ${m.unit}%-6s $note"

  /** Self time per layer, span count and cost, and the span file. */
  private def traceMetrics(o: Options, tracer: Tracer, report: Report): Unit = {
    val self = tracer.selfNanosByLayer()
    Tracer.Layers.foreach(l => report.layer(s"trace.self_ms.$l", self.getOrElse(l, 0L) / 1e6, "ms"))
    val n = tracer.spans.size
    report.layer("trace.spans", n.toDouble, "count")
    val calib = new Tracer(true)
    val reps = 100_000
    val t0 = System.nanoTime()
    var i = 0
    while (i < reps) { calib.span("bench:calibrate")(i); i += 1 }
    report.layer("trace.span_cost_ns", (System.nanoTime() - t0).toDouble / reps, "ns")
    val top = self.toSeq.sortBy(-_._2).headOption
    top.foreach { case (l, ns) => report.info("top_self_time_layer") = f"$l (${ns / 1e6}%.1f ms)" }
    val file = o.outDir.resolve(s"spans-${o.workload}-seed${o.seed}.tsv")
    tracer.write(file)
    report.info("span_file") = file.toString
  }
}
