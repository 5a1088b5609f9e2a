package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F13 — paper Fig 13: impact of the update rate on lookup latency
  * (§8.4.2).
  *
  * Expected shape: the share of updates in the ingest stream has limited
  * impact on lookup time and on the blocks a batch touches; latency drifts
  * up slowly over the experiment as the run chain grows.
  */
class Fig13UpdatesBench extends AnyFunSuite {

  test("update rate has limited impact on lookups (paper Fig 13)") {
    val cfg = EndToEndHarness.Config(cyclesTotal = 48, recordsPerCycle = 4000,
      postGroomEvery = 16, nReaders = 1, windowCycles = 8, cyclePauseMillis = 25)
    val results = FigureTables.fig13(cfg)
    val readOnly = Cell.mean(results(0).windows.flatten)
    val allUpdates = Cell.mean(results(100).windows.flatten)
    assert(allUpdates.wallNs < readOnly.wallNs * 5,
      s"p=100% (${allUpdates.wallNs} ns) must stay near p=0% (${readOnly.wallNs} ns)")
    assert(allUpdates.blocks < readOnly.blocks * 5,
      s"p=100% (${allUpdates.blocks} blocks) must stay near p=0% (${readOnly.blocks} blocks)")
    results.foreach { case (p, r) =>
      assert(r.windows.count(_.isDefined) >= r.windows.size / 2, s"p=$p produced too few samples")
    }
  }
}
