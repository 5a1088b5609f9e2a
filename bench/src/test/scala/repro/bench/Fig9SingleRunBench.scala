package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F9 — paper Fig 9: single-run query performance (§8.3.1).
  *
  * Expected shape: lookup-batch time grows only mildly with run size (the
  * hash offset array bounds the initial search range); I2 is slowest since
  * its second equality column is not covered by the offset array prefix.
  */
class Fig9SingleRunBench extends AnyFunSuite {

  private val sizes: Seq[Int] =
    if (sys.env.contains("UMZI_BENCH_LARGE")) Seq(1_000, 10_000, 100_000, 1_000_000, 10_000_000)
    else Seq(1_000, 10_000, 100_000, 1_000_000)

  test("single-run lookups are insensitive to run size (paper Fig 9)") {
    val fig = FigureTables.fig9(sizes)
    val data = fig.cost
    val nBig = sizes.last
    // bounded growth: a 1000x larger run costs < 30x per batch
    for (mode <- Seq("seq", "rand"); defn <- Seq("I1", "I3")) {
      val small = data((sizes.head, mode, defn))
      val big = data((nBig, mode, defn))
      assert(big < small.max(1.0) * 30,
        s"$defn/$mode grew from $small to $big — offset array should bound this")
    }
    // I1 and I3 comparable at the largest size, on wall time alone (generous
    // bound: single-run micro-batches sit in the microsecond range where GC
    // noise is ~2-5x). The cost adds I3's simulated I/O for ~1 100 blocks.
    val (i1, i3) = (fig.wallNanos((nBig, "seq", "I1")), fig.wallNanos((nBig, "seq", "I3")))
    assert(i1 < i3 * 10, s"seq I1 wall $i1 ns vs I3 $i3 ns")
    assert(i3 < i1 * 10, s"seq I3 wall $i3 ns vs I1 $i1 ns")
    // and on the deterministic block counts: I1's equality + sort key packs
    // a sequential batch into no more blocks than I3's hash-only key
    val (b1, b3) = (fig.blocks((nBig, "seq", "I1")), fig.blocks((nBig, "seq", "I3")))
    assert(b1 <= b3, s"seq I1 touched $b1 blocks vs I3 $b3")
  }
}
