package umzibench

import repro.storage.{CacheManager, IoStats}

/** Per-layer metrics: the fixed list every traced run prints, what each
  * layer should move end to end, and the reporting shared by workloads.
  */
object Layers {

  /** Layer -> the end-to-end metrics (and workloads) it is expected to move. */
  val Targets: Seq[(String, String)] = Seq(
    "core.build" -> ("groom_p50_ms, ingest_rec_per_s on lifecycle-rand; setup_s, groom_p50_ms on scan-seq; " +
      "nothing on shard-e2e (not observable outside Shard: reported 0)"),
    "core.merge" -> "groom_p90_ms, ingest_rec_per_s, lookup_batch_p99_ms on lifecycle-rand; zero on scan-seq",
    "core.evolve" -> "ingest_rec_per_s on lifecycle-rand",
    "core.query" -> ("lookup_batch_* and scan_* on lifecycle-rand and scan-seq; " +
      "prune ratio near 1 on scan-seq, near 0 on lifecycle-rand"),
    "core.reconcile" -> "scan_long_p50_ms on scan-seq; the quiescent scans elsewhere",
    "storage.cache" -> "lookup_batch_sim_io_ms on lifecycle-rand (index exceeds the SSD); no move on scan-seq",
    "storage.persist" -> "groom_p50_ms, space_amp on lifecycle-rand; setup_s on scan-seq",
    "storage.recover" -> "recovery_ms on every workload",
    "wildfire" -> "post_groom_p50_ms, space_amp on shard-e2e",
    "spark" -> "groom_p50_ms, post_groom_p50_ms, dsv2_* on shard-e2e",
    "dsv2" -> "dsv2_point_p50_ms, dsv2_full_scan_ms on shard-e2e",
    "jvm" -> "the tail metrics (groom_p90_ms, lookup_batch_p99_ms) on every workload",
    "trace" -> "tracing cost and self time per layer (traced run only)")

  def targetOf(metric: String): String =
    Targets.find { case (p, _) => metric.startsWith(p + ".") }.map(_._2).getOrElse("")

  val SelfTimeNames: Seq[String] = Tracer.Layers.map(l => s"trace.self_ms.$l")

  /** Every per-layer metric, in print order. */
  val Names: Seq[String] = Seq(
    "core.build.calls", "core.build.ms_p50", "core.build.ns_per_entry", "core.build.alloc_bytes_per_entry",
    "core.merge.calls", "core.merge.ms_total", "core.merge.ms_max", "core.merge.entries_rewritten",
    "core.merge.ns_per_entry",
    "core.evolve.ms_p50", "core.evolve.runs_gced",
    "core.query.snapshot_us_p50", "core.query.runs_visible_mean", "core.query.runs_searched_mean",
    "core.query.synopsis_prune_ratio", "core.query.blocks_touched_per_batch",
    "core.query.alloc_bytes_per_batch", "core.query.hit_ratio", "core.query.search_range_ms_p50",
    "core.query.entries_per_scan", "core.query.scan_prune_ratio",
    "core.reconcile.pq_ms_p50", "core.reconcile.set_ms_p50", "core.reconcile.input_entries_mean",
    "core.reconcile.useful_ratio",
    "storage.cache.blocks_mem_per_batch", "storage.cache.blocks_ssd_per_batch",
    "storage.cache.blocks_shared_per_batch", "storage.cache.hit_ratio", "storage.cache.maintain_ms_total",
    "storage.cache.background_shared_reads", "storage.cache.current_cached_level_p50", "storage.cache.ssd_mb",
    "storage.persist.calls", "storage.persist.ms_total", "storage.persist.mb_written",
    "storage.persist.write_amp", "storage.persist.runs_deleted",
    "storage.recover.read_ms", "storage.recover.rebuild_ms", "storage.recover.runs_loaded",
    "storage.recover.runs_discarded",
    "wildfire.indexer.poll_ms_p50", "wildfire.indexer.psn_lag_max", "wildfire.groomed_mb",
    "wildfire.groomed_covered_mb", "wildfire.postgroomed_mb", "wildfire.index_runs_mb",
    "spark.groom.jobs", "spark.groom.tasks", "spark.postgroom.jobs", "spark.postgroom.tasks",
    "spark.postgroom.shuffle_mb", "spark.dsv2.tasks",
    "dsv2.plan_ms_p50", "dsv2.blocks_planned", "dsv2.blocks_skipped", "dsv2.skip_ratio", "dsv2.rows_returned",
    "jvm.gc_ms", "jvm.gc_count", "jvm.heap_used_peak_mb") ++
    SelfTimeNames ++ Seq("trace.spans", "trace.span_cost_ns")

  private def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
  private def ratio(num: Long, den: Long): Double = if (den == 0) 0.0 else num.toDouble / den

  /** Index builds, from the storage-hook wrapper. */
  def build(r: Report, h: Stats): Unit = {
    val entries = h("build_entries").sum
    r.layer("core.build.calls", h("build_ns").size, "count")
    r.layer("core.build.ms_p50", h("build_ns").p50 / 1e6, "ms")
    r.layer("core.build.ns_per_entry", ratio(h("build_ns").sum, entries), "ns")
    r.layer("core.build.alloc_bytes_per_entry", ratio(h("build_alloc").sum, entries), "B")
  }

  def merge(r: Report, h: Stats): Unit = {
    r.layer("core.merge.calls", h("merge_ns").size, "count")
    r.layer("core.merge.ms_total", h("merge_ns").sum / 1e6, "ms")
    r.layer("core.merge.ms_max", h("merge_ns").max / 1e6, "ms")
    r.layer("core.merge.entries_rewritten", h("merge_entries").sum.toDouble, "count")
    r.layer("core.merge.ns_per_entry", ratio(h("merge_ns").sum, h("merge_entries").sum), "ns")
  }

  /** Build, merge and evolve run inside `Shard`, out of reach of the hook wrapper. */
  def unobservableMaintenance(r: Report): Unit = {
    build(r, new Stats)
    merge(r, new Stats)
    r.layer("core.evolve.ms_p50", 0, "ms")
    r.layer("core.evolve.runs_gced", 0, "count")
  }

  /** Query and reconcile figures (populated by traced runs). */
  def query(r: Report, q: Stats): Unit = {
    r.layer("core.query.snapshot_us_p50", q("snapshot_ns").p50 / 1e3, "us")
    r.layer("core.query.runs_visible_mean", q("runs_visible").mean, "runs")
    r.layer("core.query.runs_searched_mean", q("runs_searched").mean, "runs")
    r.layer("core.query.synopsis_prune_ratio",
      if (q("pairs").sum == 0) 0.0 else 1 - ratio(q("pairs_passed").sum, q("pairs").sum), "ratio")
    r.layer("core.query.blocks_touched_per_batch", q("blocks_touched").mean, "blocks")
    r.layer("core.query.alloc_bytes_per_batch", q("batch_alloc").mean, "B")
    r.layer("core.query.hit_ratio", ratio(q("hits").sum, q("keys").sum), "ratio")
    r.layer("core.query.search_range_ms_p50", q("search_range_ns").p50 / 1e6, "ms")
    r.layer("core.query.entries_per_scan", q("scan_entries").mean, "entries")
    r.layer("core.query.scan_prune_ratio", if (q("scan_runs_visible").sum == 0) 0.0
      else 1 - ratio(q("scan_runs_searched").sum, q("scan_runs_visible").sum), "ratio")
    r.layer("core.reconcile.pq_ms_p50", q("pq_ns").p50 / 1e6, "ms")
    r.layer("core.reconcile.set_ms_p50", q("set_ns").p50 / 1e6, "ms")
    r.layer("core.reconcile.input_entries_mean", q("reconcile_in").mean, "entries")
    r.layer("core.reconcile.useful_ratio", ratio(q("reconcile_out").sum, q("reconcile_in").sum), "ratio")
  }

  /** Tier reads during the measured lookups (`io`), ÷ `batches`. */
  def cache(r: Report, io: IoStats.Snapshot, batches: Int, maintainNs: Long, cachedLevel: Double,
      cache: CacheManager): Unit = {
    val b = math.max(1, batches).toDouble
    r.layer("storage.cache.blocks_mem_per_batch", io.mem / b, "blocks")
    r.layer("storage.cache.blocks_ssd_per_batch", io.ssd / b, "blocks")
    r.layer("storage.cache.blocks_shared_per_batch", io.shared / b, "blocks")
    r.layer("storage.cache.hit_ratio", ratio(io.mem + io.ssd, io.totalBlocks), "ratio")
    r.layer("storage.cache.maintain_ms_total", maintainNs / 1e6, "ms")
    r.layer("storage.cache.background_shared_reads", cache.backgroundSharedReads.sum.toDouble, "blocks")
    r.layer("storage.cache.current_cached_level_p50", cachedLevel, "level")
    r.layer("storage.cache.ssd_mb", cache.ssdBytes / 1e6, "MB")
  }

  def persist(r: Report, h: Stats, userMb: Double): Unit = {
    val mb = h("persist_bytes").sum / 1e6
    r.layer("storage.persist.calls", h("persist_ns").size, "count")
    r.layer("storage.persist.ms_total", (h("persist_ns").sum + h("delete_ns").sum) / 1e6, "ms")
    r.layer("storage.persist.mb_written", mb, "MB")
    r.layer("storage.persist.write_amp", ratio(mb, userMb), "ratio")
    r.layer("storage.persist.runs_deleted", h("runs_deleted").sum.toDouble, "count")
  }

  def recover(r: Report, m: Stats): Unit = {
    r.layer("storage.recover.read_ms", m("recover_read_ns").p50 / 1e6, "ms")
    r.layer("storage.recover.rebuild_ms", m("recover_rebuild_ns").p50 / 1e6, "ms")
    r.layer("storage.recover.runs_loaded", m("runs_loaded").p50, "runs")
    r.layer("storage.recover.runs_discarded", m("runs_discarded").sum.toDouble, "runs")
  }

  /** The Wildfire, Spark and DSv2 layers do no work in the index-only workloads. */
  def zeroWildfire(r: Report): Unit =
    Names.filter(n => n.startsWith("wildfire.") || n.startsWith("spark.") || n.startsWith("dsv2."))
      .foreach(n => r.layer(n, 0, unitOf(n)))

  def unitOf(n: String): String =
    if (n.endsWith("_mb")) "MB" else if (n.endsWith("_ms") || n.contains(".ms_") || n.endsWith("_ms_p50")) "ms"
    else if (n.endsWith("ratio")) "ratio" else "count"
}
