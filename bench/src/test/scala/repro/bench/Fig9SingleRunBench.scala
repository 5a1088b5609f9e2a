package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F9 — paper Fig 9: single-run query performance (§8.3.1).
  *
  * Expected shape: lookup-batch time grows only mildly with run size (the
  * hash offset array bounds the initial search range); I2 is slowest since
  * its second equality column is not covered by the offset array prefix.
  */
class Fig9SingleRunBench extends AnyFunSuite {

  test("single-run lookups are insensitive to run size (paper Fig 9)") {
    val data = FigureTables.fig9()
    val sizes = FigureTables.Sizes
    val nBig = sizes.last
    // bounded growth of wall time: a 1000x larger run takes < 30x per batch
    for (mode <- Seq("seq", "rand"); defn <- Seq("I1", "I3")) {
      val small = data((sizes.head, mode, defn)).wallNs
      val big = data((nBig, mode, defn)).wallNs
      assert(big < small * 30,
        s"$defn/$mode wall grew from $small to $big ns — offset array should bound this")
    }
    // I1 and I3 comparable at the largest size on wall time (generous
    // bound: single-run micro-batches sit in the microsecond range where GC
    // noise is ~2-5x)
    val (i1, i3) = (data((nBig, "seq", "I1")), data((nBig, "seq", "I3")))
    assert(i1.wallNs < i3.wallNs * 10, s"seq I1 wall ${i1.wallNs} ns vs I3 ${i3.wallNs} ns")
    assert(i3.wallNs < i1.wallNs * 10, s"seq I3 wall ${i3.wallNs} ns vs I1 ${i1.wallNs} ns")
    // and on the deterministic block counts: I1's equality + sort key packs
    // a sequential batch into no more blocks than I3's hash-only key
    assert(i1.blocks <= i3.blocks, s"seq I1 touched ${i1.blocks} blocks vs I3 ${i3.blocks}")
  }
}
