package umzibench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}
import repro.core._
import repro.storage.{CacheManager, SharedStorage, TierConfig}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Named sample buffers and counters of one thread; merged at the end. */
final class Stats {
  private val m = mutable.LinkedHashMap.empty[String, Samples]
  def apply(name: String): Samples = m.getOrElseUpdate(name, new Samples())
  def add(name: String, v: Long): Unit = apply(name).add(v)
  def addAll(o: Stats): Unit = o.m.foreach { case (k, s) => apply(k).addAll(s) }
}

object Stats {
  def merged(parts: Iterable[Stats]): Stats = { val s = new Stats; parts.foreach(s.addAll); s }
}

/** The storage hooks the index-only workloads install: the public
  * [[StorageHooks]] trait wrapped around a [[CacheManager]].
  *
  * Within one maintenance operation opened by [[beginOp]], the first
  * `onRunCreated` ends the run build, each later one ends one merge, and the
  * delegate call's own duration is persist time. Only the index's
  * (serialized) maintenance path calls the creation and deletion hooks, so
  * their counters need no synchronization; block accesses pass straight
  * through.
  */
final class MeasuringHooks(val cache: CacheManager, runsDir: Option[Path], tracer: Tracer)
    extends StorageHooks {

  private var opStart = 0L
  private var opAlloc = 0L
  private var mark = 0L
  private var firstInOp = true
  private var inEvolve = false

  val stats = new Stats

  /** Start of one groom (`evolve = false`) or evolve maintenance operation. */
  def beginOp(evolve: Boolean): Unit = {
    inEvolve = evolve
    firstInOp = true
    opAlloc = Jvm.threadAllocatedBytes()
    opStart = System.nanoTime()
    mark = opStart
  }

  override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = {
    val t = System.nanoTime()
    if (firstInOp && !inEvolve) {
      stats.add("build_ns", t - opStart)
      stats.add("build_entries", run.count)
      stats.add("build_alloc", Jvm.threadAllocatedBytes() - opAlloc)
      tracer.record("core.build:IndexRun.build", opStart, t)
    } else if (firstInOp) {
      tracer.record("core.evolve:IndexRun.build", opStart, t)
    } else {
      stats.add("merge_ns", t - mark)
      stats.add("merge_entries", run.count)
      tracer.record("core.merge:IndexRun.merge", mark, t)
    }
    firstInOp = false
    cache.onRunCreated(run, persisted)
    val t2 = System.nanoTime()
    tracer.record("storage.persist:onRunCreated", t, t2)
    if (persisted) {
      stats.add("persist_ns", t2 - t)
      runsDir.foreach { d =>
        val f = d.resolve(s"run-${run.id}.umzi")
        if (Files.exists(f)) stats.add("persist_bytes", Files.size(f))
      }
    }
    mark = System.nanoTime()
  }

  override def onRunsDetached(runIds: Seq[Long]): Unit = {
    val t = System.nanoTime()
    cache.onRunsDetached(runIds)
    mark = System.nanoTime()
    tracer.record("storage.cache:onRunsDetached", t, mark)
  }

  override def onSharedDeleted(runIds: Seq[Long]): Unit = {
    val t = System.nanoTime()
    cache.onSharedDeleted(runIds)
    mark = System.nanoTime()
    stats.add("delete_ns", mark - t)
    stats.add("runs_deleted", runIds.size)
    tracer.record("storage.persist:onSharedDeleted", t, mark)
  }

  override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = cache.onBlockAccess(run, blockIdx)
}

object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcCount: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionCount.max(0L)).sum
  def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def resetPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())
  /** Sum of the heap pools' peaks: an upper bound on the heap's peak use. */
  def heapPeakBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum

  /** GC and heap figures over a measured window. */
  final class Window {
    private val c0 = gcCount
    private val ms0 = gcMillis
    resetPeaks()
    def report(r: Report): Unit = {
      r.layer("jvm.gc_ms", (gcMillis - ms0).toDouble, "ms")
      r.layer("jvm.gc_count", (gcCount - c0).toDouble, "count")
      r.layer("jvm.heap_used_peak_mb", heapPeakBytes / 1e6, "MB")
    }
  }
}

/** Query operations, timed from outside, with their checks' raw material.
  *
  * Untraced, a batch lookup is `QueryExec.batchLookup` and a range scan is
  * `QueryExec.rangeScan`. Traced, both are composed from the public pieces
  * (`visibleRuns` -> `runMayMatch` -> `searchRange` -> `Reconcile`) inside
  * spans, and the composed scan is compared with `QueryExec.rangeScan` and
  * with the set-approach reconciliation.
  */
final class QueryProbe(cache: CacheManager, tracer: Tracer, checks: Checks) {
  val stats = new Stats
  private val trace = tracer.enabled

  def batchLookup(index: UmziIndex, keys: Array[(Array[Long], Array[Long])]): Array[Option[IndexEntry]] = {
    val defn = index.config.defn
    val ctx = index.newReadContext()
    cache.resetThreadSimulatedNanos()
    if (!trace) {
      val t0 = System.nanoTime()
      val res = QueryExec.batchLookup(index, keys, Long.MaxValue, ctx)
      stats.add("batch_ns", System.nanoTime() - t0)
      stats.add("batch_sim_ns", cache.threadSimulatedNanos)
      res
    } else {
      val a0 = Jvm.threadAllocatedBytes()
      var snapNs = 0L
      var runs: Vector[IndexRun] = Vector.empty
      val t0 = System.nanoTime()
      val res = tracer.span("core.query:batchLookup", tracer.newOp()) {
        val s0 = System.nanoTime()
        runs = tracer.span("core.query:visibleRuns")(index.visibleRuns())
        snapNs = System.nanoTime() - s0
        tracer.span("core.query:batchLookupIn") {
          QueryExec.batchLookupIn(runs, defn, keys, Long.MaxValue, ctx)
        }
      }
      stats.add("batch_ns", System.nanoTime() - t0)
      stats.add("batch_sim_ns", cache.threadSimulatedNanos)
      stats.add("batch_alloc", Jvm.threadAllocatedBytes() - a0)
      stats.add("snapshot_ns", snapNs)
      stats.add("blocks_touched", ctx.blocksTouched)
      stats.add("runs_visible", runs.size)
      // synopsis pruning over (key, run) pairs, and runs with any candidate key
      var passed = 0L
      var searched = 0L
      runs.foreach { r =>
        var any = false
        keys.foreach { case (eq, sort) =>
          if (QueryExec.runMayMatch(r, eq, sort, sort)) { passed += 1; any = true }
        }
        if (any) searched += 1
      }
      stats.add("runs_searched", searched)
      stats.add("pairs", keys.length.toLong * runs.size)
      stats.add("pairs_passed", passed)
      stats.add("keys", keys.length)
      stats.add("hits", res.count(_.isDefined))
      res
    }
  }

  /** Range scan of one equality value over [lo, hi] of the sort column;
    * `kind` names the latency sample ("short" or "long").
    */
  def rangeScan(index: UmziIndex, eq: Long, lo: Long, hi: Long, kind: String): ArrayBuffer[IndexEntry] = {
    val eqv = Array(eq)
    val lov = Array(lo)
    val hiv = Array(hi)
    if (!trace) {
      val t0 = System.nanoTime()
      val out = QueryExec.rangeScan(index, eqv, lov, hiv, Long.MaxValue)
      stats.add(s"scan_${kind}_ns", System.nanoTime() - t0)
      out
    } else {
      val defn = index.config.defn
      val ctx = index.newReadContext()
      var runs: Vector[IndexRun] = Vector.empty
      var perRun: Vector[ArrayBuffer[IndexEntry]] = Vector.empty
      val t0 = System.nanoTime()
      val out = tracer.span("core.query:rangeScan", tracer.newOp()) {
        runs = tracer.span("core.query:visibleRuns")(index.visibleRuns())
        val (hash, lower) = QueryExec.encodeKey(defn, eqv, lov)
        val (_, upper) = QueryExec.encodeKey(defn, eqv, hiv)
        val cands = tracer.span("core.query:runMayMatch")(runs.filter(QueryExec.runMayMatch(_, eqv, lov, hiv)))
        perRun = cands.map { r =>
          val s0 = System.nanoTime()
          val found = tracer.span("core.query:searchRange") {
            r.searchRange(hash, lower, upper, defn.keyWidth, Long.MaxValue, ctx)
          }
          stats.add("search_range_ns", System.nanoTime() - s0)
          found
        }
        val p0 = System.nanoTime()
        val merged = tracer.span("core.reconcile:priorityQueue")(Reconcile.byPriorityQueue(perRun))
        stats.add("pq_ns", System.nanoTime() - p0)
        merged
      }
      stats.add(s"scan_${kind}_ns", System.nanoTime() - t0)
      stats.add("scan_entries", out.size)
      stats.add("scan_runs_visible", runs.size)
      stats.add("scan_runs_searched", perRun.size)
      stats.add("reconcile_in", perRun.map(_.size.toLong).sum)
      stats.add("reconcile_out", out.size)
      val s0 = System.nanoTime()
      val bySet = tracer.span("core.reconcile:set", tracer.newOp())(Reconcile.bySet(perRun))
      stats.add("set_ns", System.nanoTime() - s0)
      val direct = QueryExec.rangeScan(index, eqv, lov, hiv, Long.MaxValue)
      checks.op(direct == out, s"composed scan ($eq,[$lo,$hi]) differs from QueryExec.rangeScan")
      checks.op(bySet.sortBy(_.sortValues(0)) == out,
        s"set and priority-queue reconciliation disagree on ($eq,[$lo,$hi])")
      out
    }
  }
}

object FileTree {
  /** Total size of the regular files under `root` (0 if absent). */
  def treeBytes(root: Path): Long =
    if (!Files.exists(root)) 0L
    else {
      val s = Files.walk(root)
      try s.iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum
      finally s.close()
    }

  def deleteTree(root: Path): Unit =
    if (Files.exists(root)) {
      val s = Files.walk(root)
      try s.iterator().asScala.toSeq.reverse.foreach(p => Files.deleteIfExists(p))
      finally s.close()
    }
}

object IndexBytes {
  /** Bytes held by the runs' entry data and headers (synopsis, offset array). */
  def of(runs: Seq[IndexRun]): Long = runs.map { r =>
    r.data.length.toLong + 16L * r.synopsis.nCols + r.offsetArray.map(_.offsets.length * 4L).getOrElse(0L) + 64L
  }.sum
}

object Recovery {
  /** Recover a fresh index from `shared` `reps` times, timing each from the
    * start of recovery until its first lookup is answered; every recovered
    * index must answer `sample` exactly as `live` does.
    */
  def reps(live: UmziIndex, shared: SharedStorage, tiers: TierConfig,
      sample: Array[(Array[Long], Array[Long])], reps: Int, tracer: Tracer, checks: Checks,
      out: Stats): Unit = {
    val config = live.config
    val before = QueryExec.batchLookup(live, sample, Long.MaxValue)
    (0 until reps).foreach { _ =>
      System.gc() // a recovering process starts without the previous index's garbage
      val fresh = new UmziIndex(config, new CacheManager(tiers, Some(shared)))
      checks.guarded("recover") {
        tracer.span("storage.recover:recovery", tracer.newOp()) {
          val t0 = System.nanoTime()
          val runs = tracer.span("storage.recover:listRuns")(shared.listRuns(config.defn))
          val t1 = System.nanoTime()
          val (watermark, _) = shared.readCheckpoint()
          val discarded = tracer.span("storage.recover:recover")(fresh.recover(runs, watermark))
          val t2 = System.nanoTime()
          QueryExec.pointLookup(fresh, sample(0)._1, sample(0)._2, Long.MaxValue)
          val t3 = System.nanoTime()
          out.add("recovery_ns", t3 - t0)
          out.add("recover_read_ns", t1 - t0)
          out.add("recover_rebuild_ns", t2 - t1)
          out.add("runs_loaded", runs.size)
          out.add("runs_discarded", discarded.size)
        }
        val after = QueryExec.batchLookup(fresh, sample, Long.MaxValue)
        val bad = sample.indices.find(i => after(i) != before(i))
        checks.op(bad.isEmpty,
          s"recovered index answered ${bad.map(after(_))} where the live index answered ${bad.map(before(_))}")
      }
    }
  }
}
