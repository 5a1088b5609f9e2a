package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F14 — paper Fig 14: impact of purged runs on lookup latency
  * (§8.4.3).
  *
  * Expected shape: with everything SSD-cached, lookups are fast; purging
  * half or all runs forces block fetches from shared storage on the query
  * path, inflating latency by orders of magnitude and making it spiky. The
  * claim is about tier I/O, so it is checked on the simulated I/O time.
  */
class Fig14PurgeBench extends AnyFunSuite {

  test("purged runs dominate lookup latency (paper Fig 14)") {
    val cfg = EndToEndHarness.Config(cyclesTotal = 48, recordsPerCycle = 4000,
      postGroomEvery = 16, updatePercent = 10.0, nReaders = 1,
      windowCycles = 8, cyclePauseMillis = 25)
    val results = FigureTables.fig14(cfg)
    def simIo(name: String): Double = Cell.mean(results(name).windows.flatten).simNs
    val (none, half, all) = (simIo("none"), simIo("half"), simIo("all"))
    assert(all > none * 5, s"all-purged I/O ($all ns) must dwarf fully-cached ($none ns)")
    assert(half > none, s"half-purged I/O ($half ns) must exceed fully-cached ($none ns)")
    assert(all >= half * 0.8, s"all-purged I/O ($all ns) should not beat half-purged ($half ns)")
  }
}
