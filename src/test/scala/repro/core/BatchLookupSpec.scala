package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import BatchLookupSpec.Case

/** `QueryExec.batchLookupIn` (paper §7.2) against one lookup per key: the
  * same answers as `QueryExec.pointLookup`, and the same first block touches,
  * in the same order, as [[ReferenceBatchLookup]], under every index shape,
  * block size and batch size around the search group of 16.
  */
class BatchLookupSpec extends AnyFunSuite {

  private val PureRange = IndexDef(Seq.empty, Seq("sort0", "sort1"), Seq("inc0"))
  private val Defs = Seq("I1" -> IndexDef.I1, "I2" -> IndexDef.I2, "I3" -> IndexDef.I3, "pure range" -> PureRange)
  private val BlockSizes = Seq(1, 3, 7, 8, 512)
  private val BatchSizes = Seq(0, 1, 15, 16, 17, 1000)

  private val caseGen: Gen[Case] = for {
    seed <- Gen.long
    grooms <- Gen.choose(0, 12)
    maxRun <- Gen.oneOf(0, 1, 5, 40, 200)
    evolveEvery <- Gen.oneOf(0, 2, 3, 5)
    pool <- Gen.oneOf(1, 3, 10, 40)
    missPercent <- Gen.oneOf(0, 10, 50, 100)
    timeTravel <- Gen.oneOf(false, true)
    order <- Gen.choose(0, 3) // random, in key order, reversed, in key order but the first two swapped
    covered <- Gen.oneOf(false, true)
  } yield Case(seed, grooms, maxRun, evolveEvery, pool, missPercent, timeTravel, order, covered)

  private def key(defn: IndexDef, r: Random, pool: Int): (Array[Long], Array[Long]) =
    (Array.fill(defn.nEq)(r.nextInt(pool).toLong), Array.fill(defn.nSort)(r.nextInt(pool).toLong))

  /** The index `c` grows, some of its runs empty; the run snapshot `c`
    * searches; and the last beginTS written.
    */
  private def grow(defn: IndexDef, epb: Int, c: Case, r: Random): (UmziIndex, Vector[IndexRun], Long) = {
    val index = new UmziIndex(UmziConfig(defn, maxRunsPerLevel = 2, sizeRatio = 2,
      postGroomedStartLevel = 2, maxLevel = 4, entriesPerBlock = epb))
    var ts = 0L
    val groomed = ArrayBuffer.empty[IndexEntry]
    var coveredSnapshot = Vector.empty[IndexRun]
    (0 until c.grooms).foreach { b =>
      val es = Array.fill(r.nextInt(c.maxRun + 1)) {
        val (eq, sort) = key(defn, r, c.pool)
        ts += 1 + r.nextInt(2)
        IndexEntry(eq, sort, ts, Rid(ZoneId.Groomed, b, groomed.size), Array(ts))
      }
      groomed ++= es
      index.addGroomedRun(es, BlockRange(b, b))
      if (c.evolveEvery > 0 && (b + 1) % c.evolveEvery == 0) {
        val before = index.visibleRuns().filter(_.zone == ZoneId.Groomed)
        val lo = index.maxCoveredGroomedId + 1
        val moved = groomed.filter(e => e.rid.blockId >= lo).zipWithIndex.map { case (e, i) =>
          IndexEntry(e.eqValues, e.sortValues, e.beginTS, Rid(ZoneId.PostGroomed, 1000 + b, i), e.includedValues)
        }
        index.evolve(moved.toArray, BlockRange(lo, b))
        coveredSnapshot = before ++ index.postGroomedList.snapshot
      }
    }
    val runs = if (c.covered && coveredSnapshot.nonEmpty) coveredSnapshot else index.visibleRuns()
    (index, runs, ts)
  }

  private def holds(defn: IndexDef, epb: Int, batchSize: Int, c: Case): Boolean = {
    val r = new Random(c.seed)
    val (index, runs, maxTs) = grow(defn, epb, c, r)
    val present = runs.flatMap(_.entries).map(e => (e.eqValues, e.sortValues))
    val drawn = Array.fill(batchSize) {
      if (present.isEmpty || r.nextInt(100) < c.missPercent) key(defn, r, c.pool + 2)
      else present(r.nextInt(present.size))
    }
    val keys = c.order match {
      case 0 => drawn
      case o =>
        val sorted = drawn.sortBy(k => QueryExec.encodeKey(defn, k._1, k._2)._2)(
          Ordering.comparatorToOrdering((a: Array[Byte], b: Array[Byte]) => java.util.Arrays.compareUnsigned(a, b)))
        if (o == 1) sorted
        else if (o == 2) sorted.reverse
        else sorted.indices.map(i => sorted(if (i < 2 && sorted.length > 1) 1 - i else i)).toArray
    }
    val queryTS = if (c.timeTravel) r.nextLong(maxTs + 2) else Long.MaxValue
    val got = ArrayBuffer.empty[(Long, Int)]
    val results = QueryExec.batchLookupIn(runs, defn, keys, queryTS, ReferenceBatchLookup.recorder(got))
    val want = ArrayBuffer.empty[(Long, Int)]
    val reference = ReferenceBatchLookup.lookup(runs, defn, keys, queryTS, ReferenceBatchLookup.recorder(want))
    val perKeyAgrees = runs != index.visibleRuns() || keys.indices.forall(i =>
      results(i) == QueryExec.pointLookup(index, keys(i)._1, keys(i)._2, queryTS))
    results.toSeq == reference.toSeq && got == want && perKeyAgrees
  }

  Defs.foreach { case (name, defn) =>
    test(s"$name: batch lookups equal per-key lookups and touch blocks in the reference order") {
      for (epb <- BlockSizes; batchSize <- BatchSizes) {
        val prop = Prop.forAll(caseGen)(c => holds(defn, epb, batchSize, c))
        val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(8), prop)
        assert(res.passed, s"entriesPerBlock=$epb batch=$batchSize: ${Pretty.pretty(res)}")
      }
    }
  }
}

object BatchLookupSpec {

  /** One generated case: the index is grown from `seed`; `evolveEvery` 0
    * never evolves; `covered` searches the snapshot a query can take between
    * an evolve's new post-groomed run and its watermark, which still holds
    * the groomed runs the evolve covers.
    */
  final case class Case(seed: Long, grooms: Int, maxRun: Int, evolveEvery: Int, pool: Int,
      missPercent: Int, timeTravel: Boolean, order: Int, covered: Boolean)
}
