package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F10 — paper Fig 10: multi-run query performance with sequentially
  * ingested keys (§8.3.2).
  *
  * Expected shapes: batching amortizes per-key cost sharply; sequential
  * queries stay nearly flat as runs grow (synopses prune almost everything)
  * while random queries grow ~linearly with the run count; range scan time
  * is linear in the scan range with little difference between sequential
  * and random range starts. Each shape is checked on wall time and on
  * distinct blocks touched, separately.
  */
class Fig10SeqKeysBench extends AnyFunSuite {

  test("batching amortizes per-key lookup cost (paper Fig 10a)") {
    val rows = FigureTables.fig10a(sequentialIngest = true, entriesPerRun = 25_000)
    val (_, seqAt1, randAt1) = rows.head
    val (_, seqAt1000, randAt1000) = rows.find(_._1 == 1000).get
    assert(seqAt1000.wallNs < seqAt1.wallNs,
      s"per-key wall at batch 1000 (${seqAt1000.wallNs}) must undercut batch 1 (${seqAt1.wallNs}) (sequential)")
    assert(randAt1000.wallNs < randAt1.wallNs * 1.5,
      s"per-key wall at batch 1000 (${randAt1000.wallNs}) must not exceed batch 1 (${randAt1.wallNs}) (random)")
    // a block fetched for one key of a batch serves its later keys
    assert(seqAt1000.blocks < seqAt1.blocks,
      s"per-key blocks at batch 1000 (${seqAt1000.blocks}) must undercut batch 1 (${seqAt1.blocks}) (sequential)")
    assert(randAt1000.blocks <= randAt1.blocks,
      s"per-key blocks at batch 1000 (${randAt1000.blocks}) must not exceed batch 1 (${randAt1.blocks}) (random)")
  }

  test("synopses keep sequential queries flat as runs accumulate (paper Fig 10b)") {
    val rows = FigureTables.fig10b(sequentialIngest = true, entriesPerRun = 25_000)
    val (_, _, randAt1) = rows.head
    val (_, seqAt100, randAt100) = rows.last
    // random queries degrade with more runs...
    assert(randAt100.wallNs > randAt1.wallNs * 2,
      s"random query wall should grow with runs: ${randAt1.wallNs} -> ${randAt100.wallNs}")
    assert(randAt100.blocks > randAt1.blocks * 2,
      s"random query blocks should grow with runs: ${randAt1.blocks} -> ${randAt100.blocks}")
    // ...while sequential queries are pruned by the synopses
    assert(seqAt100.wallNs < randAt100.wallNs,
      s"sequential wall (${seqAt100.wallNs}) must beat random (${randAt100.wallNs}) at 100 runs")
    assert(seqAt100.blocks < randAt100.blocks,
      s"sequential blocks (${seqAt100.blocks}) must beat random (${randAt100.blocks}) at 100 runs")
  }

  test("range scan cost is linear in the range (paper Fig 10c)") {
    val rows = FigureTables.fig10c(sequentialIngest = true, entriesPerRun = 25_000)
    val (_, seqAt1, _) = rows.head
    val (_, seqAt1M, randAt1M) = rows.last
    assert(seqAt1M.wallNs > seqAt1.wallNs * 100,
      s"1M-range scan wall must dwarf range-1 scan: ${seqAt1.wallNs} -> ${seqAt1M.wallNs}")
    assert(seqAt1M.blocks > seqAt1.blocks * 100,
      s"1M-range scan blocks must dwarf range-1 scan: ${seqAt1.blocks} -> ${seqAt1M.blocks}")
    // sequential vs random range starts: same order of magnitude
    assert(seqAt1M.wallNs / randAt1M.wallNs < 10 && randAt1M.wallNs / seqAt1M.wallNs < 10,
      s"wall: seq ${seqAt1M.wallNs} vs random ${randAt1M.wallNs}")
    assert(seqAt1M.blocks / randAt1M.blocks < 10 && randAt1M.blocks / seqAt1M.blocks < 10,
      s"blocks: seq ${seqAt1M.blocks} vs random ${randAt1M.blocks}")
  }
}
