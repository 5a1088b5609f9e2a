package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F15 — paper Fig 15: impact of index evolve operations (§8.4.4).
  *
  * Expected shape: evolve adds bounded overhead (cache misses right after
  * runs move zones) but keeps the total run count down; with the
  * post-groomer disabled the groomed run chain keeps growing.
  */
class Fig15EvolveBench extends AnyFunSuite {

  test("index evolve has limited overhead and curbs run growth (paper Fig 15)") {
    val cfg = EndToEndHarness.Config(cyclesTotal = 60, recordsPerCycle = 4000,
      postGroomEvery = 12, updatePercent = 10.0, nReaders = 1,
      windowCycles = 10, cyclePauseMillis = 25)
    val results = FigureTables.fig15(cfg)
    val on = results("post-groom")
    val off = results("no post-groom")
    val (onCell, offCell) = (Cell.mean(on.windows.flatten), Cell.mean(off.windows.flatten))
    // overhead bounded: evolve-enabled lookups within a small factor of disabled
    assert(onCell.wallNs < offCell.wallNs * 5,
      s"evolve wall overhead must be limited: on=${onCell.wallNs} off=${offCell.wallNs}")
    assert(onCell.blocks < offCell.blocks * 5,
      s"evolve block overhead must be limited: on=${onCell.blocks} off=${offCell.blocks}")
    // both record samples
    assert(on.samples > 0 && off.samples > 0)
    // evolve reduces or maintains the visible run count
    assert(on.finalRunCount <= off.finalRunCount,
      s"evolve should curb runs: on=${on.finalRunCount} off=${off.finalRunCount}")
    // no data lost either way
    assert(on.finalEntryCount == off.finalEntryCount)
  }
}
