package umzibench

import java.nio.file.{Files, Path}
import java.util.SplittableRandom
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.LongAdder
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.sources.{EqualTo, GreaterThanOrEqual, LessThanOrEqual}
import repro.Oracle
import repro.core.{BlockRange, IndexEntry, QueryExec, Rid, UmziIndex, ZoneId}
import repro.dsv2.{UmziDataSource, UmziScan, UmziSnapshot}
import repro.storage.{CacheManager, SharedStorage}
import repro.wildfire.{BlockMeta, Shard, Workload}

/** `shard-e2e`: the real Wildfire path on a local SparkSession.
  *
  * One [[Shard]] ingests cycles of sequential-key upserts and grooms each
  * (`groomOnce`); every [[PostGroomEvery]] cycles it post-grooms and lets
  * the indexer evolve the index (`postGroomOnce` + `indexerPoll`). Then it
  * runs index batch lookups and range scans, narrow DSv2 queries and full
  * unified-snapshot counts, each checked against the model; the unified
  * snapshot is checked against the DuckDB oracle over the groomed history,
  * and fresh shards recover the index from shared storage.
  */
object ShardE2E {
  val Devices = 64
  val RecordsPerCycle = 5000
  val UpdatePercent = 10.0
  val PostGroomEvery = 10
  val BatchKeys = 1000
  val ShufflePartitions = 4
  /** Groom cycles per second of `--seconds`. A cycle costs about 0.9 s
    * once post-groom is amortized, so ingest takes longer than `--seconds`.
    */
  val CyclesPerSecond = 1.25
  /** Share of the run's seconds spent on queries after ingest. */
  val QueryShare = 0.45
  val SetupReps = 3
  val RecoveryReps = 7
  val PhaseKey = "umzibench.phase"

  def master: String = s"local[${math.min(4, Runtime.getRuntime.availableProcessors())}]"

  def plannedCycles(seconds: Int): Int =
    math.max(PostGroomEvery + 1, math.round(CyclesPerSecond * seconds).toInt)

  def run(o: Options, tracer: Tracer, checks: Checks, report: Report): Unit = {
    val t0 = System.nanoTime()
    warmIndexQueries(o.seed)
    val spark = SparkSession.builder()
      .master(master)
      .appName("umzibench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    val startNs = System.nanoTime() - t0
    try runWith(spark, startNs, o, tracer, checks, report)
    finally spark.stop()
  }

  /** JIT warm-up of the index query path on an in-memory index, before
    * Spark's code shares the profiles of the collection methods it calls.
    */
  private def warmIndexQueries(seed: Long): Unit = {
    val index = new UmziIndex(Shard.defaultConfig)
    val wl = new Workload(Devices, sequentialKeys = true, UpdatePercent, seed)
    (0 until 8).foreach { b =>
      val es = wl.nextBatch(RecordsPerCycle).map(u => IndexEntry(Array(u.deviceId), Array(u.msgNum),
        (b.toLong << 20) | u.commitSeq, Rid(ZoneId.Groomed, b.toLong, u.commitSeq), Array(u.value)))
      index.addGroomedRun(es, BlockRange(b, b))
    }
    val batch = Array.tabulate(BatchKeys)(i => (Array(i % Devices.toLong), Array(i.toLong)))
    Loop.repeatFor(500_000_000L)(Seq(() => QueryExec.batchLookup(index, batch, Long.MaxValue),
      () => QueryExec.rangeScan(index, Array(1L), Array(0L), Array(64L * 50), Long.MaxValue),
      () => QueryExec.rangeScan(index, Array(1L), Array(0L), Array(Long.MaxValue / 2), Long.MaxValue)))
  }

  private def runWith(spark: SparkSession, startNs: Long, o: Options, tracer: Tracer, checks: Checks,
      report: Report): Unit = {
    val cycles = plannedCycles(o.seconds)
    report.info("spark_master") = spark.sparkContext.master
    report.info("spark_shuffle_partitions") = spark.conf.get("spark.sql.shuffle.partitions")
    report.info("spark_broadcast_join_threshold") = spark.conf.get("spark.sql.autoBroadcastJoinThreshold")
    report.info("cycles") = s"$cycles x $RecordsPerCycle upserts, post-groom every $PostGroomEvery"
    report.info("tier_config") = repro.storage.TierConfig().toString + " (Shard default, SSD unbounded)"

    // Set-up, repeated: a throwaway shard grooms, answers every query type
    // and recovers, for JIT and Spark warm-up. Post-groom is left out: it
    // costs seconds of Spark jobs whether warm or not.
    val setup = new Samples()
    (0 until SetupReps).foreach { rep =>
      val w0 = System.nanoTime()
      val dir = o.workDir.resolve(s"shard-warmup-$rep")
      val ws = new Shard(spark, dir)
      val wl = new Workload(Devices, sequentialKeys = true, UpdatePercent, o.seed + 7919L * (rep + 1))
      (0 until 2).foreach { _ => ws.ingest(wl.nextBatch(RecordsPerCycle)); ws.groomOnce() }
      val batch = Array.tabulate(BatchKeys)(i => (Array(i % Devices.toLong), Array(i.toLong)))
      Loop.repeatFor(300_000_000L)(Seq(() => QueryExec.batchLookup(ws.index, batch, Long.MaxValue),
        () => ws.scan(0, 0, 64 * 50), () => ws.scan(0, 0, Long.MaxValue / 2)))
      UmziSnapshot.raw(spark, ws.sharedRoot.toString).filter(col("deviceId") === 0L && col("msgNum").between(0L, 100L))
        .collect()
      UmziSnapshot.raw(spark, ws.sharedRoot.toString).count()
      new Shard(spark, dir).recoverIndex()
      FileTree.deleteTree(dir)
      setup.add(System.nanoTime() - w0)
    }

    val listener = new PhaseListener
    if (tracer.enabled) spark.sparkContext.addSparkListener(listener)
    val root = o.workDir.resolve("shard")
    val shard = new Shard(spark, root)
    val sharedRoot = shard.sharedRoot.toString
    val model = new KeyModel(cycles * RecordsPerCycle)
    val workload = new Workload(Devices, sequentialKeys = true, UpdatePercent, o.seed)
    val m = new Stats
    val jvm = new Jvm.Window
    def phase(p: String): Unit = spark.sparkContext.setLocalProperty(PhaseKey, p)
    def timed(sample: String, span: String)(body: => Unit): Unit = {
      val s0 = System.nanoTime()
      checks.task(span)(tracer.span(span, tracer.newOp())(body))
      m.add(sample, System.nanoTime() - s0)
    }

    var records = 0L
    val ingest0 = System.nanoTime()
    (0 until cycles).foreach { c =>
      val batch = workload.nextBatch(RecordsPerCycle)
      shard.ingest(batch)
      phase("groom")
      var blockId = -1L
      timed("groom_ns", "wildfire:groomOnce") { blockId = shard.groomOnce().map(_.blockId).getOrElse(-1L) }
      records += batch.length
      batch.foreach { u =>
        model.upsert(Mix.pack(u.deviceId, u.msgNum), shard.groomer.beginTsOf(blockId, u.commitSeq), u.value, blockId)
      }
      if ((c + 1) % PostGroomEvery == 0) {
        phase("postgroom")
        val p0 = System.nanoTime()
        timed("postgroom_only_ns", "wildfire:postGroomOnce")(shard.postGroomOnce())
        m.add("psn_lag", shard.postGroomer.readState()._1 - shard.indexer.indexedPsn)
        timed("poll_ns", "wildfire:indexerPoll")(shard.indexerPoll())
        m.add("post_groom_ns", System.nanoTime() - p0)
      }
    }
    model.publish()
    val ingestNs = System.nanoTime() - ingest0
    val busyNs = m("groom_ns").sum + m("post_groom_ns").sum

    // Queries over the quiescent shard, on a heap cleared of ingest garbage.
    System.gc()
    phase("query")
    val queryNs = (QueryShare * o.seconds * 1e9).toLong
    val rng = new SplittableRandom(Mix.hash(o.seed))
    val probe = new QueryProbe(shard.cache, tracer, checks)
    val q = new ModelQueries(model, shard.index, checks, Devices, records)
    val io0 = shard.cache.stats.snapshot
    Loop.repeatFor(queryNs * 45 / 100)(Seq.fill(4)(() => q.lookupBatch(probe, rng, BatchKeys)) ++
      Seq.fill(4)(() => q.shortScan(probe, rng)) :+ (() => q.longScan(probe, rng)))
    val io = shard.cache.stats.snapshot - io0

    phase("dsv2")
    var rows = 0L
    Loop.repeatFor(queryNs * 30 / 100)(Seq(() => {
      val k = q.sorted(rng.nextInt(q.sorted.length))
      val (d, a) = (Mix.device(k), Mix.msg(k))
      if (tracer.enabled) {
        val (planned0, skipped0) = (UmziDataSource.blocksPlanned.sum, UmziDataSource.blocksSkipped.sum)
        val pl0 = System.nanoTime()
        tracer.span("dsv2:planInputPartitions", tracer.newOp()) {
          new UmziScan(shard.sharedRoot, Long.MaxValue,
            Array(EqualTo("deviceId", d), GreaterThanOrEqual("msgNum", a), LessThanOrEqual("msgNum", a + 100)))
            .planInputPartitions()
        }
        m.add("plan_ns", System.nanoTime() - pl0)
        m.add("blocks_planned", UmziDataSource.blocksPlanned.sum - planned0)
        m.add("blocks_skipped", UmziDataSource.blocksSkipped.sum - skipped0)
      }
      val s0 = System.nanoTime()
      checks.guarded("dsv2 narrow query") {
        tracer.span("dsv2:narrowQuery", tracer.newOp()) {
          UmziSnapshot.raw(spark, sharedRoot)
            .filter(col("deviceId") === d && col("msgNum").between(a, a + 100))
            .select("msgNum", "value", "beginTS").collect()
        }
      }.foreach { got =>
        m.add("dsv2_point_ns", System.nanoTime() - s0)
        rows += got.length
        val latest = got.groupBy(_.getLong(0)).map { case (msg, rs) =>
          val r = rs.maxBy(_.getLong(2))
          msg -> (r.getLong(2), r.getLong(1))
        }
        val from = KeyModel.lowerBound(q.sorted, k)
        val until = KeyModel.lowerBound(q.sorted, Mix.pack(d, a + 101))
        val expected = (from until until).map { i =>
          val s = model.slotOf(q.sorted(i))
          Mix.msg(q.sorted(i)) -> (model.ts(s), model.values(s))
        }.toMap
        checks.op(latest == expected, s"DSv2 query device $d msgNum [$a, ${a + 100}] returned $latest, expected $expected")
      }
    }))

    // Expected unified-snapshot size: one open version per key of the
    // covered (post-groomed) blocks plus every version in uncovered blocks.
    val coveredHi = shard.postGroomer.readState()._2
    val expectedRows = (0 until model.size).count(s => model.firstBlock(s) <= coveredHi) +
      (cycles - 1 - coveredHi) * RecordsPerCycle
    Loop.repeatFor(queryNs * 25 / 100)(Seq(() => {
      val s0 = System.nanoTime()
      checks.guarded("DSv2 full scan")(tracer.span("dsv2:fullScan", tracer.newOp()) {
        UmziSnapshot.raw(spark, sharedRoot).count()
      }).foreach { n =>
        m.add("full_scan_ns", System.nanoTime() - s0)
        rows += n
        checks.op(n == expectedRows, s"full unified scan counted $n rows, expected $expectedRows")
      }
    }))
    jvm.report(report)
    phase("check")
    val tc0 = System.nanoTime()

    // The unified snapshot holds exactly the model's latest versions, and on
    // a slice of two devices it equals DuckDB's answer over the groomed
    // history (the oracle inserts row by row, so the slice keeps it fast).
    checks.guarded("snapshot check") {
      val rows = UmziSnapshot.scan(spark, sharedRoot).select("deviceId", "msgNum", "value", "beginTS").collect()
      val bad = rows.find { r =>
        val s = model.slotOf(Mix.pack(r.getLong(0), r.getLong(1)))
        s < 0 || model.values(s) != r.getLong(2) || model.ts(s) != r.getLong(3)
      }
      checks.op(rows.length == model.size && bad.isEmpty,
        s"unified snapshot has ${rows.length} keys (model ${model.size}); first mismatch $bad")
    }
    val tc1 = System.nanoTime()
    val oracleDevices = Seq.fill(2)(Mix.device(q.sorted(rng.nextInt(q.sorted.length)))).distinct
    checks.task("oracle snapshot check") {
      val hist = BlockMeta.listIn(shard.groomedDir)
        .map(b => spark.read.parquet(b.file).select("deviceId", "msgNum", "value", "beginTS"))
        .reduce(_ unionByName _)
        .filter(col("deviceId").isin(oracleDevices: _*))
      Oracle.assertEquivalent(
        UmziSnapshot.scan(spark, sharedRoot).filter(col("deviceId").isin(oracleDevices: _*))
          .select("deviceId", "msgNum", "value", "beginTS"),
        """SELECT deviceId, msgNum, value, beginTS FROM (
          |  SELECT deviceId, msgNum, value, beginTS,
          |         row_number() OVER (PARTITION BY deviceId, msgNum
          |                            ORDER BY CAST(beginTS AS BIGINT) DESC) AS rn
          |  FROM hist
          |) WHERE rn = 1""".stripMargin,
        "hist" -> hist)
    }

    val tc2 = System.nanoTime()
    // Recovery: fresh shards over the same root answer as the live one.
    val sample = Array.fill(5 * BatchKeys) {
      val k = q.sorted(rng.nextInt(q.sorted.length))
      (Array(Mix.device(k)), Array(Mix.msg(k)))
    }
    val before = QueryExec.batchLookup(shard.index, sample, Long.MaxValue)
    (0 until RecoveryReps).foreach { _ =>
      System.gc() // a recovering process starts without the previous shard's garbage
      checks.guarded("recoverIndex") {
        val r0 = System.nanoTime()
        val revived = tracer.span("wildfire:recoverIndex", tracer.newOp()) {
          val fresh = new Shard(spark, root)
          fresh.recoverIndex()
          fresh.lookup(sample(0)._1(0), sample(0)._2(0))
          fresh
        }
        m.add("recovery_ns", System.nanoTime() - r0)
        val after = QueryExec.batchLookup(revived.index, sample, Long.MaxValue)
        val bad = sample.indices.find(i => after(i) != before(i))
        checks.op(bad.isEmpty && revived.indexer.indexedPsn == shard.indexer.indexedPsn,
          s"recovered shard answered ${bad.map(after(_))} where the live one answered ${bad.map(before(_))}")
      }
    }
    // Recovery's two halves, composed from the public pieces Shard.recoverIndex uses.
    val storage = new SharedStorage(shard.sharedRoot)
    (0 until RecoveryReps).foreach { _ =>
      val r0 = System.nanoTime()
      val runs = tracer.span("storage.recover:listRuns", tracer.newOp())(storage.listRuns(Shard.defaultDefn))
      val r1 = System.nanoTime()
      val idx = new UmziIndex(Shard.defaultConfig, new CacheManager())
      val discarded = tracer.span("storage.recover:recover", tracer.newOp())(idx.recover(runs, storage.readCheckpoint()._1))
      m.add("recover_read_ns", r1 - r0)
      m.add("recover_rebuild_ns", System.nanoTime() - r1)
      m.add("runs_loaded", runs.size)
      m.add("runs_discarded", discarded.size)
    }

    val tc3 = System.nanoTime()
    report.info("tail_s") = Seq(tc0, tc1, tc2, tc3).sliding(2).map(p => f"${(p(1) - p(0)) / 1e9}%.2f").mkString(",")
    val sharedBytes = FileTree.treeBytes(shard.sharedRoot)
    val coveredBytes = BlockMeta.listIn(shard.groomedDir).filter(_.blockId <= coveredHi)
      .map(b => Files.size(Path.of(b.file))).sum
    val s = probe.stats
    report.e2e("setup_s", (startNs + setup.p50) / 1e9, "s",
      s"index warm-up and Spark start + median of ${setup.size} shard warm-ups")
    report.e2e("lookup_batch_p50_ms", s("batch_ns").p50 / 1e6, "ms", s"n=${s("batch_ns").size}")
    report.e2e("lookup_batch_sim_io_ms", s("batch_sim_ns").mean / 1e6, "ms", "simulated, not in wall time")
    report.e2e("groom_p50_ms", m("groom_ns").p50 / 1e6, "ms", s"n=${m("groom_ns").size}")
    report.e2e("groom_p90_ms", m("groom_ns").quantile(0.9) / 1e6, "ms", s"n=${m("groom_ns").size}")
    report.e2e("ingest_rec_per_s", records / (busyNs / 1e9), "rec/s")
    report.e2e("recovery_ms", m("recovery_ns").p50 / 1e6, "ms", s"n=${m("recovery_ns").size}")
    report.e2e("space_amp", sharedBytes.toDouble / (records * Workloads.UserBytesPerRecord), "ratio")
    report.e2e("index_mem_mb", IndexBytes.of(shard.index.visibleRuns()) / 1e6, "MB")
    report.more("lookup_batch_p99_ms", s("batch_ns").quantile(0.99) / 1e6, "ms", s"n=${s("batch_ns").size}")
    report.more("scan_short_p50_ms", s("scan_short_ns").p50 / 1e6, "ms", s"n=${s("scan_short_ns").size}")
    report.more("scan_long_p50_ms", s("scan_long_ns").p50 / 1e6, "ms", s"n=${s("scan_long_ns").size}")
    report.more("post_groom_p50_ms", m("post_groom_ns").p50 / 1e6, "ms", s"n=${m("post_groom_ns").size}")
    report.more("dsv2_point_p50_ms", m("dsv2_point_ns").p50 / 1e6, "ms", s"n=${m("dsv2_point_ns").size}")
    report.more("dsv2_full_scan_ms", m("full_scan_ns").p50 / 1e6, "ms", s"n=${m("full_scan_ns").size}")

    Layers.unobservableMaintenance(report)
    Layers.query(report, s)
    Layers.cache(report, io, s("batch_ns").size, maintainNs = 0L, shard.cache.currentCachedLevel.toDouble,
      shard.cache)
    Layers.persist(report, new Stats, records * Workloads.UserBytesPerRecord / 1e6)
    Layers.recover(report, m)
    report.layer("wildfire.indexer.poll_ms_p50", m("poll_ns").p50 / 1e6, "ms")
    report.layer("wildfire.indexer.psn_lag_max", m("psn_lag").max.toDouble, "count")
    report.layer("wildfire.groomed_mb", FileTree.treeBytes(shard.groomedDir) / 1e6, "MB")
    report.layer("wildfire.groomed_covered_mb", coveredBytes / 1e6, "MB")
    report.layer("wildfire.postgroomed_mb", FileTree.treeBytes(shard.postGroomer.postDir) / 1e6, "MB")
    report.layer("wildfire.index_runs_mb", FileTree.treeBytes(shard.sharedRoot.resolve("index-runs")) / 1e6, "MB")
    listener.drain()
    report.layer("spark.groom.jobs", listener.count("groom", "jobs").toDouble, "count")
    report.layer("spark.groom.tasks", listener.count("groom", "tasks").toDouble, "count")
    report.layer("spark.postgroom.jobs", listener.count("postgroom", "jobs").toDouble, "count")
    report.layer("spark.postgroom.tasks", listener.count("postgroom", "tasks").toDouble, "count")
    report.layer("spark.postgroom.shuffle_mb", listener.count("postgroom", "shuffle_bytes") / 1e6, "MB")
    report.layer("spark.dsv2.tasks", listener.count("dsv2", "tasks").toDouble, "count")
    val (planned, skipped) = (m("blocks_planned").sum, m("blocks_skipped").sum)
    report.layer("dsv2.plan_ms_p50", m("plan_ns").p50 / 1e6, "ms")
    report.layer("dsv2.blocks_planned", m("blocks_planned").mean, "count")
    report.layer("dsv2.blocks_skipped", m("blocks_skipped").mean, "count")
    report.layer("dsv2.skip_ratio", if (planned + skipped == 0) 0 else skipped.toDouble / (planned + skipped), "ratio")
    report.layer("dsv2.rows_returned", rows.toDouble, "count")
    report.info("records") = records.toString
    report.info("warmup_s") = (0 until setup.size).map(i => f"${setup.quantile(i.toDouble / math.max(1, setup.size - 1)) / 1e9}%.2f").mkString(",")
    report.info("start_s") = f"${startNs / 1e9}%.2f"
    report.info("ingest_s") = f"${ingestNs / 1e9}%.2f"
    report.info("covered_groomed_hi") = coveredHi.toString
  }

  /** Counts Spark jobs, tasks and shuffle bytes by the benchmark phase
    * that submitted them (a local property set on the driver thread).
    */
  final class PhaseListener extends SparkListener {
    private val stagePhase = new ConcurrentHashMap[Int, String]()
    private val counts = new ConcurrentHashMap[String, LongAdder]()
    private def add(phase: String, what: String, n: Long): Unit =
      counts.computeIfAbsent(s"$phase.$what", _ => new LongAdder).add(n)

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val phase = Option(e.properties).flatMap(p => Option(p.getProperty(PhaseKey))).getOrElse("other")
      add(phase, "jobs", 1)
      e.stageInfos.foreach(si => stagePhase.put(si.stageId, phase))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val phase = stagePhase.getOrDefault(e.stageId, "other")
      add(phase, "tasks", 1)
      if (e.taskMetrics != null) add(phase, "shuffle_bytes", e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }

    def count(phase: String, what: String): Long =
      Option(counts.get(s"$phase.$what")).map(_.sum).getOrElse(0L)

    /** Wait until the asynchronous listener bus stops delivering events. */
    def drain(): Unit = {
      var last = -1L
      var stable = 0
      val deadline = System.nanoTime() + 5_000_000_000L
      while (stable < 3 && System.nanoTime() < deadline) {
        Thread.sleep(100)
        val now = counts.values().toArray.map(_.asInstanceOf[LongAdder].sum).sum
        if (now == last) stable += 1 else stable = 0
        last = now
      }
    }
  }
}
