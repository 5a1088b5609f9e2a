package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BlockRange, IndexDef, IndexRun, ReferenceBuild, ZoneId}

/** Table F8 — paper Fig 8: index building performance (§8.2).
  *
  * Expected shape: build time scales ~linearly with run size; I3 (one fewer
  * key column) is never slower than I1/I2 by more than noise; the number of
  * indexed columns matters far less than the sort itself.
  */
class Fig8BuildBench extends AnyFunSuite {

  test("index run build time scales linearly; I3 cheapest (paper Fig 8)") {
    val data = FigureTables.fig8()
    val sizes = FigureTables.Sizes
    val nBig = sizes.last
    // ~linear growth: 1000x more tuples => at least 100x more time
    assert(data((nBig, "I1")) > data((sizes.head, "I1")) * (nBig / sizes.head) / 10.0,
      "build time must grow roughly linearly")
    // I3 has one fewer key column: not slower than I1 beyond noise
    assert(data((nBig, "I3")) <= data((nBig, "I1")) * 1.25,
      s"I3=${data((nBig, "I3"))} vs I1=${data((nBig, "I1"))}")
    // column-count impact is small next to sorting: I2 within 2x of I3
    assert(data((nBig, "I2")) <= data((nBig, "I3")) * 2.0)
  }

  test("the flat-array build is at least 1.4x faster than the per-entry-row reference at 100 K entries") {
    val defn = IndexDef.I1
    val es = RunFactory.entries(defn, RunFactory.keys(100_000, sequential = false, 3L), 0L, 0L)
    def minNs(build: => IndexRun): Long = (0 until 5).map { _ =>
      System.gc()
      val t0 = System.nanoTime(); build; System.nanoTime() - t0
    }.min
    def current = IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es)
    def reference = ReferenceBuild.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es)
    (0 until 3).foreach { _ => current; reference } // JIT warm-up of both
    val (cur, ref) = (minNs(current), minNs(reference))
    assert(cur * 1.4 <= ref, s"build ${cur / 1e6} ms vs reference ${ref / 1e6} ms")
  }
}
