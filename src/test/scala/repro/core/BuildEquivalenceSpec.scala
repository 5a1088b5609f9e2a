package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** `IndexRun.build` (paper §5.2) against [[ReferenceBuild]]: the same data,
  * synopsis and offset array, byte for byte, under every index shape.
  */
class BuildEquivalenceSpec extends AnyFunSuite {

  private val PureRange = IndexDef(Seq.empty, Seq("sort0", "sort1"), Seq("inc0"))
  private val Defs = Seq("I1" -> IndexDef.I1, "I2" -> IndexDef.I2, "I3" -> IndexDef.I3, "pure range" -> PureRange)

  private val Extremes = Seq(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)

  /** Mostly one of `pool` small values (so columns tie often), sometimes an
    * extreme, sometimes any long.
    */
  private def column(pool: Int): Gen[Long] =
    Gen.frequency(6 -> Gen.choose(0L, pool - 1L), 2 -> Gen.oneOf(Extremes), 1 -> Gen.long)

  /** Few devices make many entries share a hash; a pool of 6 sort values and
    * 4 timestamps repeats keys with distinct and with equal beginTS.
    */
  private def entryGen(defn: IndexDef, devices: Int): Gen[IndexEntry] = for {
    eq <- Gen.listOfN(defn.nEq, column(devices))
    sort <- Gen.listOfN(defn.nSort, column(6))
    ts <- column(4)
    zone <- Gen.oneOf(ZoneId.Groomed, ZoneId.PostGroomed)
    block <- column(3)
    off <- Gen.frequency(4 -> Gen.choose(0, 3), 1 -> Gen.oneOf(Int.MinValue, -1, Int.MaxValue))
    inc <- Gen.listOfN(defn.nIncluded, column(3))
  } yield IndexEntry(eq.toArray, sort.toArray, ts, Rid(zone, block, off), inc.toArray)

  /** `n` entries of which about a quarter repeat an earlier one exactly. */
  private def entriesGen(defn: IndexDef, n: Int): Gen[Array[IndexEntry]] = for {
    devices <- Gen.oneOf(1, 2, 3, 64)
    base <- Gen.listOfN(n, entryGen(defn, devices))
    copies <- Gen.listOfN(n, Gen.frequency(3 -> Gen.const(-1), 1 -> Gen.choose(0, math.max(n - 1, 0))))
  } yield base.indices.map(i => if (copies(i) >= 0) base(copies(i)) else base(i)).toArray

  private def sameRun(defn: IndexDef, es: Array[IndexEntry]): Boolean = {
    val got = IndexRun.build(defn, 5, ZoneId.Groomed, 0, BlockRange(1, 2), es, 8)
    val want = ReferenceBuild.build(defn, 5, ZoneId.Groomed, 0, BlockRange(1, 2), es, 8)
    got.count == want.count && got.data.sameElements(want.data) &&
      got.synopsis == want.synopsis && got.offsetArray == want.offsetArray
  }

  private def check(defn: IndexDef, sizes: Gen[Int], tests: Int): Unit = {
    val prop = Prop.forAll(sizes.flatMap(n => entriesGen(defn, n)))(es => sameRun(defn, es))
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  private val Cutoff = IndexRun.SmallSortCutoff
  private val EdgeSizes = Seq(0, 1, 2, Cutoff - 1, Cutoff, Cutoff + 1)

  Defs.foreach { case (name, defn) =>
    test(s"$name: sizes 0, 1, 2 and the small-sort cutoff -1, 0, +1 equal the reference") {
      EdgeSizes.foreach(n => check(defn, Gen.const(n), 50))
    }

    test(s"$name: random runs of up to 3000 entries equal the reference") {
      check(defn, Gen.frequency(3 -> Gen.choose(0, 300), 1 -> Gen.choose(300, 3000)), 100)
    }
  }

  test("100 K entries of one key: distinct, then equal beginTS, then exact copies") {
    val defn = IndexDef.I1
    val n = 100_000
    def oneKey(ts: Int => Long, off: Int => Int): Array[IndexEntry] =
      Array.tabulate(n)(i => IndexEntry(Array(7L), Array(9L), ts(i), Rid(ZoneId.Groomed, 3, off(i)), Array(1L)))
    Seq(
      "distinct beginTS" -> oneKey(i => (i * 7919L) % n, _ => 0),
      "one beginTS, distinct RIDs" -> oneKey(_ => 5L, i => n - i),
      "exact copies" -> oneKey(_ => 5L, _ => 0)).foreach { case (what, es) =>
      val t0 = System.nanoTime()
      assert(sameRun(defn, es), what)
      // both builds are O(n log n) or better: well under a second each; a
      // quadratic sort of 100 K rows would need minutes
      assert(System.nanoTime() - t0 < 20_000_000_000L, s"$what took too long")
    }
  }
}
