package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table F11 — paper Fig 11: multi-run query performance with randomly
  * ingested keys (§8.3.3).
  *
  * Expected shape: random ingest makes every run span the whole key space,
  * so synopses stop pruning and sequential queries degrade to ~random-query
  * performance — the defining contrast with Fig 10. Each shape is checked on
  * wall time and on distinct blocks touched, separately.
  */
class Fig11RandKeysBench extends AnyFunSuite {

  private def within(a: Double, b: Double, factor: Double): Boolean = a / b < factor && b / a < factor

  test("random ingest neutralizes pruning: seq ~ random per batch size (paper Fig 11a)") {
    val rows = FigureTables.fig10a(sequentialIngest = false, entriesPerRun = 25_000)
    val (_, seq, rand) = rows.find(_._1 == 1000).get
    assert(within(seq.wallNs, rand.wallNs, 4),
      s"seq (${seq.wallNs} ns) and random (${rand.wallNs} ns) should converge under random ingest")
    assert(within(seq.blocks, rand.blocks, 4),
      s"seq (${seq.blocks} blocks) and random (${rand.blocks} blocks) should converge under random ingest")
  }

  test("both query kinds grow with the run count (paper Fig 11b)") {
    val rows = FigureTables.fig10b(sequentialIngest = false, entriesPerRun = 25_000)
    val (_, seqAt1, randAt1) = rows.head
    val (_, seqAt100, randAt100) = rows.last
    assert(seqAt100.wallNs > seqAt1.wallNs * 2,
      s"sequential wall should now degrade too: ${seqAt1.wallNs} -> ${seqAt100.wallNs}")
    assert(randAt100.wallNs > randAt1.wallNs * 2,
      s"random wall degrades as always: ${randAt1.wallNs} -> ${randAt100.wallNs}")
    assert(seqAt100.blocks > seqAt1.blocks * 2,
      s"sequential blocks should now grow too: ${seqAt1.blocks} -> ${seqAt100.blocks}")
    assert(randAt100.blocks > randAt1.blocks * 2,
      s"random blocks grow as always: ${randAt1.blocks} -> ${randAt100.blocks}")
    // and they stay comparable
    assert(within(seqAt100.wallNs, randAt100.wallNs, 4))
    assert(within(seqAt100.blocks, randAt100.blocks, 4))
  }

  test("range scans stay linear under random ingest (paper Fig 11c)") {
    val rows = FigureTables.fig10c(sequentialIngest = false, entriesPerRun = 25_000)
    val (_, at1, _) = rows.head
    val (_, at1M, _) = rows.last
    assert(at1M.wallNs > at1.wallNs * 50, s"range growth must dominate wall: ${at1.wallNs} -> ${at1M.wallNs}")
    assert(at1M.blocks > at1.blocks * 50, s"range growth must dominate blocks: ${at1.blocks} -> ${at1M.blocks}")
  }
}
