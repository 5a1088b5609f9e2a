package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random
import Fixtures._

/** Index queries vs a brute-force reference model (paper §7). */
class QueryExecSpec extends AnyFunSuite {

  /** Reference model: every ingested version of every key. */
  private final class Model {
    val versions = mutable.Map.empty[(Long, Long), mutable.ArrayBuffer[(Long, Long)]] // key -> (ts, value)
    def put(eq: Long, sort: Long, ts: Long, value: Long): Unit =
      versions.getOrElseUpdate((eq, sort), mutable.ArrayBuffer.empty) += ((ts, value))
    /** most recent version per key with ts <= queryTS */
    def lookup(eq: Long, sort: Long, ts: Long): Option[(Long, Long)] =
      versions.get((eq, sort)).flatMap(vs => vs.filter(_._1 <= ts).maxByOption(_._1))
    def range(eq: Long, lo: Long, hi: Long, ts: Long): Set[(Long, Long, Long)] =
      versions.keys.filter { case (e, s) => e == eq && s >= lo && s <= hi }
        .flatMap { case (e, s) => lookup(e, s, ts).map(v => (e, s, v._1)) }
        .toSet
  }

  /** Build an index + model by streaming groom batches and evolves. */
  private def populate(seed: Long, nBatches: Int, batchSize: Int,
      evolveEvery: Int = 0, k: Int = 3): (UmziIndex, Model) = {
    val r = new Random(seed)
    val index = new UmziIndex(UmziConfig(I1, maxRunsPerLevel = k, sizeRatio = 3,
      postGroomedStartLevel = 3, maxLevel = 5, entriesPerBlock = 8))
    val model = new Model
    var ts = 0L
    val groomedRows = mutable.ArrayBuffer.empty[(Long, IndexEntry)] // blockId -> entry
    (0 until nBatches).foreach { b =>
      val es = (0 until batchSize).map { i =>
        val eq = r.nextInt(6).toLong
        val sort = r.nextInt(40).toLong
        val v = r.nextInt(1000).toLong
        ts += 1
        model.put(eq, sort, ts, v)
        val e = entry(eq, sort, ts, block = b, off = i, value = v)
        groomedRows += ((b.toLong, e))
        e
      }.toArray
      index.addGroomedRun(es, BlockRange(b, b))
      if (evolveEvery > 0 && (b + 1) % evolveEvery == 0) {
        val coveredHi = b.toLong
        val coveredLo = index.maxCoveredGroomedId + 1
        val moved = groomedRows.filter(gr => gr._1 >= coveredLo && gr._1 <= coveredHi)
        val evolved = moved.zipWithIndex.map { case ((_, e), i) =>
          IndexEntry(e.eqValues, e.sortValues, e.beginTS,
            Rid(ZoneId.PostGroomed, 10_000 + b, i), e.includedValues)
        }.toArray
        index.evolve(evolved, BlockRange(coveredLo, coveredHi))
      }
    }
    (index, model)
  }

  test("point lookups match the model at latest timestamp") {
    val (index, model) = populate(seed = 20, nBatches = 10, batchSize = 30)
    for (eq <- 0L until 6L; sort <- 0L until 40L) {
      val got = QueryExec.pointLookup(index, Array(eq), Array(sort), Long.MaxValue)
        .map(e => (e.beginTS, e.includedValues(0)))
      assert(got == model.lookup(eq, sort, Long.MaxValue), s"key ($eq,$sort)")
    }
  }

  test("point lookups match the model at historical timestamps (time travel)") {
    val (index, model) = populate(seed = 21, nBatches = 8, batchSize = 25)
    val r = new Random(99)
    (0 until 200).foreach { _ =>
      val eq = r.nextInt(6).toLong; val sort = r.nextInt(40).toLong
      val ts = r.nextInt(220).toLong
      val got = QueryExec.pointLookup(index, Array(eq), Array(sort), ts)
        .map(e => (e.beginTS, e.includedValues(0)))
      assert(got == model.lookup(eq, sort, ts), s"key ($eq,$sort) ts=$ts")
    }
  }

  test("range scans match the model (set approach)") {
    val (index, model) = populate(seed = 22, nBatches = 10, batchSize = 30)
    val r = new Random(100)
    (0 until 100).foreach { _ =>
      val eq = r.nextInt(6).toLong
      val lo = r.nextInt(40).toLong; val hi = lo + r.nextInt(20)
      val ts = 50L + r.nextInt(300)
      val got = QueryExec.rangeScan(index, Array(eq), Array(lo), Array(hi), ts,
        Reconcile.SetApproach)
        .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(got == model.range(eq, lo, hi, ts), s"eq=$eq [$lo,$hi] ts=$ts")
    }
  }

  test("range scans match the model (priority queue approach)") {
    val (index, model) = populate(seed = 23, nBatches = 10, batchSize = 30)
    val r = new Random(101)
    (0 until 100).foreach { _ =>
      val eq = r.nextInt(6).toLong
      val lo = r.nextInt(40).toLong; val hi = lo + r.nextInt(20)
      val ts = 50L + r.nextInt(300)
      val got = QueryExec.rangeScan(index, Array(eq), Array(lo), Array(hi), ts,
        Reconcile.PriorityQueueApproach)
        .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(got == model.range(eq, lo, hi, ts), s"eq=$eq [$lo,$hi] ts=$ts")
    }
  }

  test("set and priority-queue reconciliation agree (paper §7.1.2)") {
    val (index, _) = populate(seed = 24, nBatches = 12, batchSize = 40)
    val r = new Random(102)
    (0 until 100).foreach { _ =>
      val eq = r.nextInt(6).toLong
      val lo = r.nextInt(40).toLong; val hi = lo + r.nextInt(25)
      val ts = r.nextInt(500).toLong
      val bySet = QueryExec.rangeScan(index, Array(eq), Array(lo), Array(hi), ts,
        Reconcile.SetApproach).map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      val byPq = QueryExec.rangeScan(index, Array(eq), Array(lo), Array(hi), ts,
        Reconcile.PriorityQueueApproach).map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(bySet == byPq, s"eq=$eq [$lo,$hi] ts=$ts")
    }
  }

  test("queries stay correct across evolve operations") {
    val (index, model) = populate(seed = 25, nBatches = 12, batchSize = 30, evolveEvery = 4)
    assert(index.maxCoveredGroomedId >= 0, "evolves must have happened")
    for (eq <- 0L until 6L; sort <- 0L until 40L by 3) {
      val got = QueryExec.pointLookup(index, Array(eq), Array(sort), Long.MaxValue)
        .map(e => (e.beginTS, e.includedValues(0)))
      assert(got == model.lookup(eq, sort, Long.MaxValue), s"key ($eq,$sort)")
    }
    val r = new Random(103)
    (0 until 60).foreach { _ =>
      val eq = r.nextInt(6).toLong
      val lo = r.nextInt(40).toLong; val hi = lo + r.nextInt(20)
      val ts = 100L + r.nextInt(300)
      val got = QueryExec.rangeScan(index, Array(eq), Array(lo), Array(hi), ts)
        .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(got == model.range(eq, lo, hi, ts), s"eq=$eq [$lo,$hi] ts=$ts")
    }
  }

  test("batch lookup matches individual lookups and preserves input order") {
    val (index, model) = populate(seed = 26, nBatches = 10, batchSize = 30, evolveEvery = 5)
    val r = new Random(104)
    val keys = Array.fill(300)((Array(r.nextInt(6).toLong), Array(r.nextInt(40).toLong)))
    val got = QueryExec.batchLookup(index, keys, Long.MaxValue)
    keys.zip(got).foreach { case ((eq, sort), res) =>
      assert(res.map(e => (e.beginTS, e.includedValues(0))) ==
        model.lookup(eq(0), sort(0), Long.MaxValue), s"key (${eq(0)},${sort(0)})")
    }
  }

  test("batch lookup handles missing keys") {
    val (index, _) = populate(seed = 27, nBatches = 3, batchSize = 10)
    val keys = Array((Array(999L), Array(999L)), (Array(0L), Array(0L)))
    val got = QueryExec.batchLookup(index, keys, Long.MaxValue)
    assert(got(0).isEmpty)
  }

  test("batch lookup touches no more blocks than individual lookups") {
    val (index, _) = populate(seed = 28, nBatches = 10, batchSize = 50)
    val r = new Random(105)
    val keys = Array.fill(200)((Array(r.nextInt(6).toLong), Array(r.nextInt(40).toLong)))
    val batchCtx = index.newReadContext()
    QueryExec.batchLookup(index, keys, Long.MaxValue, batchCtx)
    var individual = 0
    keys.foreach { case (eq, sort) =>
      val c = index.newReadContext()
      QueryExec.pointLookup(index, eq, sort, Long.MaxValue, c)
      individual += c.blocksTouched
    }
    assert(batchCtx.blocksTouched <= individual,
      s"batch=${batchCtx.blocksTouched} individual=$individual")
  }

  test("batch lookup reads the blocks of per-key probes in stable key order") {
    val (index, _) = populate(seed = 29, nBatches = 12, batchSize = 60, evolveEvery = 5)
    val r = new Random(106)
    // duplicates and misses included
    val keys = Array.fill(300)((Array(r.nextInt(7).toLong), Array(r.nextInt(45).toLong)))
    val runs = index.visibleRuns()
    def recorder(log: mutable.ArrayBuffer[(Long, Int)]) = new ReadContext(new StorageHooks {
      override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = ()
      override def onRunsDetached(runIds: Seq[Long]): Unit = ()
      override def onSharedDeleted(runIds: Seq[Long]): Unit = ()
      override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = log += ((run.id, blockIdx))
    })
    val got = mutable.ArrayBuffer.empty[(Long, Int)]
    val results = QueryExec.batchLookupIn(runs, I1, keys, Long.MaxValue, recorder(got))
    // reference: stable sort of the encoded keys, runs newest first, each
    // key probed until found
    val want = mutable.ArrayBuffer.empty[(Long, Int)]
    val refCtx = recorder(want)
    val encoded = keys.map { case (eq, sort) => QueryExec.encodeKey(I1, eq, sort) }
    val order = keys.indices.sortBy(i => encoded(i)._2)(
      Ordering.comparatorToOrdering((a: Array[Byte], b: Array[Byte]) => java.util.Arrays.compareUnsigned(a, b)))
    val found = Array.fill[Option[IndexEntry]](keys.length)(None)
    runs.foreach { run =>
      order.foreach { i =>
        if (found(i).isEmpty && QueryExec.runMayMatch(run, keys(i)._1, keys(i)._2, keys(i)._2))
          found(i) = run.pointLookup(encoded(i)._1, encoded(i)._2, Long.MaxValue, refCtx)
      }
    }
    assert(got == want)
    assert(results.toSeq == found.toSeq)
  }

  test("synopsis pruning never changes results") {
    // narrow per-run key ranges so pruning bites, then verify vs model
    val index = new UmziIndex(UmziConfig(I1, maxRunsPerLevel = 100, sizeRatio = 4,
      postGroomedStartLevel = 3, maxLevel = 5, entriesPerBlock = 8))
    val model = new Model
    var ts = 0L
    (0 until 10).foreach { b =>
      val es = (0 until 20).map { i =>
        val eq = b.toLong // each run holds exactly one device
        val sort = i.toLong
        ts += 1
        model.put(eq, sort, ts, ts)
        entry(eq, sort, ts, block = b, off = i, value = ts)
      }.toArray
      index.addGroomedRun(es, BlockRange(b, b))
    }
    (0 until 10).foreach { d =>
      val got = QueryExec.rangeScan(index, Array(d.toLong), Array(0L), Array(19L), Long.MaxValue)
        .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(got == model.range(d, 0, 19, Long.MaxValue))
    }
    // pruning effectiveness: a single-device scan touches few blocks
    val c = index.newReadContext()
    QueryExec.rangeScan(index, Array(3L), Array(0L), Array(19L), Long.MaxValue, ctx = c)
    val allBlocks = index.visibleRuns().map(_.numDataBlocks).sum
    assert(c.blocksTouched < allBlocks, "synopsis should prune most runs")
  }

  test("encodeKey validates arity") {
    intercept[IllegalArgumentException] {
      QueryExec.encodeKey(I1, Array(1L, 2L), Array(1L))
    }
  }

  test("I2 (two equality columns) end to end") {
    val defn = IndexDef.I2
    val index = new UmziIndex(UmziConfig(defn, maxRunsPerLevel = 3, sizeRatio = 3,
      postGroomedStartLevel = 2, maxLevel = 4, entriesPerBlock = 8))
    val r = new Random(30)
    val model = mutable.Map.empty[(Long, Long), (Long, Long)]
    var ts = 0L
    (0 until 6).foreach { b =>
      val es = (0 until 25).map { i =>
        val k1 = r.nextInt(5).toLong; val k2 = r.nextInt(5).toLong
        ts += 1
        val v = r.nextInt(100).toLong
        val cur = model.get((k1, k2))
        if (cur.forall(_._1 < ts)) model((k1, k2)) = (ts, v)
        IndexEntry(Array(k1, k2), Array.empty, ts, Rid(ZoneId.Groomed, b, i), Array(v))
      }.toArray
      index.addGroomedRun(es, BlockRange(b, b))
    }
    model.foreach { case ((k1, k2), (expTs, expV)) =>
      val got = QueryExec.pointLookup(index, Array(k1, k2), Array.empty, Long.MaxValue)
      assert(got.map(e => (e.beginTS, e.includedValues(0))) == Some((expTs, expV)),
        s"key ($k1,$k2)")
    }
  }
}
