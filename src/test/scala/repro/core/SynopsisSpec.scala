package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Fixtures._

/** Per-run key-column min/max synopsis (paper §4.2). */
class SynopsisSpec extends AnyFunSuite {

  test("run build computes per-column min/max") {
    val s = buildRun(I1, Seq(
      entry(4, 10, 1), entry(8, 2, 1), entry(1, 7, 1))).synopsis
    assert(s.mins.toSeq == Seq(1L, 2L))
    assert(s.maxs.toSeq == Seq(8L, 10L))
  }

  test("paper Figure 2 header synopsis: msg [0,2], device [1,8]") {
    // Fig 2a rows: device values {1,8,4,4,4,5,3,3}, msg values {1,2,1,1,2,1,0,1}
    val rows = Seq((1L, 1L), (8L, 2L), (4L, 1L), (4L, 1L), (4L, 2L), (5L, 1L), (3L, 0L), (3L, 1L))
    val s = buildRun(I1, rows.zipWithIndex.map { case ((d, m), i) =>
      entry(d, m, 100 + i)
    }).synopsis
    assert(s.mins(0) == 1L && s.maxs(0) == 8L) // device range [1,8]
    assert(s.mins(1) == 0L && s.maxs(1) == 2L) // msg range [0,2]
  }

  test("contains and overlaps") {
    val s = Synopsis(Array(5L), Array(10L))
    assert(s.contains(0, 5) && s.contains(0, 7) && s.contains(0, 10))
    assert(!s.contains(0, 4) && !s.contains(0, 11))
    assert(s.overlaps(0, 0, 5) && s.overlaps(0, 10, 99) && s.overlaps(0, 6, 8))
    assert(!s.overlaps(0, 0, 4) && !s.overlaps(0, 11, 20))
  }

  test("empty synopsis overlaps nothing") {
    val e = buildRun(I1, Seq.empty).synopsis
    assert(!e.contains(0, 0))
    assert(!e.overlaps(1, Long.MinValue + 1, Long.MaxValue - 1))
  }
}
