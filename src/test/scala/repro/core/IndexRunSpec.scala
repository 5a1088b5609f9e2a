package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import Fixtures._

/** Single-run format, build and search (paper §4.2, §5.2, §7.1.1). */
class IndexRunSpec extends AnyFunSuite {

  /** The run of paper Figure 2: device equality column, msg sort column.
    * (device, msg, beginTS) rows; hashes are computed by our hash64, so the
    * physical order differs from the figure but the semantics are identical.
    */
  private def fig2Run: IndexRun = buildRun(I1, Seq(
    entry(1, 1, 100), entry(8, 2, 101), entry(4, 1, 97), entry(4, 1, 94),
    entry(4, 2, 102), entry(5, 1, 97), entry(3, 0, 103), entry(3, 1, 104)))

  private def scanRun(run: IndexRun, eq: Long, lo: Long, hi: Long, ts: Long): Seq[(Long, Long, Long)] = {
    val (h, lower) = QueryExec.encodeKey(run.defn, Array(eq), Array(lo))
    val (_, upper) = QueryExec.encodeKey(run.defn, Array(eq), Array(hi))
    run.searchRange(h, lower, upper, run.defn.keyWidth, ts, ctx())
      .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSeq
  }

  test("paper Figure 2 range scan: device=4, 1<=msg<=3, queryTS=100") {
    // Expected (paper §7.1.1): only entry (4,1,97) — (4,1,94) is an older
    // version, (4,2,102) fails the timestamp predicate, (5,...) is out of
    // bounds.
    assert(scanRun(fig2Run, 4, 1, 3, 100) == Seq((4L, 1L, 97L)))
  }

  test("paper Figure 2 scan at queryTS=102 also sees (4,2,102)") {
    assert(scanRun(fig2Run, 4, 1, 3, 102).toSet == Set((4L, 1L, 97L), (4L, 2L, 102L)))
  }

  test("paper Figure 2 scan at queryTS=90 sees nothing for device 4") {
    assert(scanRun(fig2Run, 4, 1, 3, 90).isEmpty)
  }

  test("entries are sorted by encoded bytes after build") {
    val r = new Random(11)
    val run = buildRun(I1, Seq.fill(500)(
      entry(r.nextInt(20), r.nextInt(50), r.nextInt(1000))))
    val w = run.defn.entryWidth
    (1 until run.count).foreach { i =>
      assert(KeyCodec.compareUnsigned(run.data, (i - 1) * w, run.data, i * w, w) <= 0)
    }
  }

  test("versions of the same key are ordered newest first") {
    val run = buildRun(I1, Seq(entry(7, 7, 1), entry(7, 7, 3), entry(7, 7, 2)))
    val versions = run.entries.filter(e => e.eqValues(0) == 7 && e.sortValues(0) == 7)
    assert(versions.map(_.beginTS) == Seq(3L, 2L, 1L))
  }

  test("range bounds are inclusive on both ends") {
    val run = buildRun(I1, Seq(entry(1, 5, 10), entry(1, 6, 10), entry(1, 7, 10)))
    assert(scanRun(run, 1, 5, 7, 99).map(_._2).sorted == Seq(5L, 6L, 7L))
    assert(scanRun(run, 1, 6, 6, 99).map(_._2) == Seq(6L))
    assert(scanRun(run, 1, 8, 9, 99).isEmpty)
  }

  test("equality column isolates devices sharing sort values") {
    val run = buildRun(I1, Seq(entry(1, 5, 10), entry(2, 5, 10), entry(3, 5, 10)))
    assert(scanRun(run, 2, 0, 99, 99) == Seq((2L, 5L, 10L)))
  }

  test("point lookup returns most recent visible version") {
    val run = buildRun(I1, Seq(entry(9, 9, 10, value = 1), entry(9, 9, 20, value = 2),
      entry(9, 9, 30, value = 3)))
    val (h, kb) = QueryExec.encodeKey(I1, Array(9L), Array(9L))
    assert(run.pointLookup(h, kb, 25, ctx()).map(_.beginTS) == Some(20L))
    assert(run.pointLookup(h, kb, 99, ctx()).map(_.beginTS) == Some(30L))
    assert(run.pointLookup(h, kb, 5, ctx()).isEmpty)
    assert(run.pointLookup(h, kb, 10, ctx()).map(_.beginTS) == Some(10L))
  }

  test("point lookup misses absent keys") {
    val run = buildRun(I1, Seq(entry(1, 1, 1)))
    val (h, kb) = QueryExec.encodeKey(I1, Array(1L), Array(2L))
    assert(run.pointLookup(h, kb, 99, ctx()).isEmpty)
    val (h2, kb2) = QueryExec.encodeKey(I1, Array(2L), Array(1L))
    assert(run.pointLookup(h2, kb2, 99, ctx()).isEmpty)
  }

  test("empty run searches cleanly") {
    val run = buildRun(I1, Seq.empty)
    assert(scanRun(run, 1, 0, 10, 99).isEmpty)
    val (h, kb) = QueryExec.encodeKey(I1, Array(1L), Array(1L))
    assert(run.pointLookup(h, kb, 99, ctx()).isEmpty)
    assert(run.numDataBlocks == 0)
  }

  test("hash-only index (I3): equality lookup without sort columns") {
    val defn = IndexDef.I3
    val es = Seq(
      IndexEntry(Array(5L), Array.empty, 10, Rid(ZoneId.Groomed, 0, 0), Array(50L)),
      IndexEntry(Array(5L), Array.empty, 20, Rid(ZoneId.Groomed, 0, 1), Array(51L)),
      IndexEntry(Array(6L), Array.empty, 10, Rid(ZoneId.Groomed, 0, 2), Array(60L)))
    val run = IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es.toArray, 4)
    val (h, kb) = QueryExec.encodeKey(defn, Array(5L), Array.empty)
    assert(run.pointLookup(h, kb, 99, ctx()).map(_.includedValues(0)) == Some(51L))
  }

  test("pure range index (no equality columns) scans by sort value") {
    val defn = IndexDef(Seq.empty, Seq("s"), Seq.empty)
    val es = (1L to 20L).map(i =>
      IndexEntry(Array.empty, Array(i), 10, Rid(ZoneId.Groomed, 0, i.toInt), Array.empty))
    val run = IndexRun.build(defn, 0, ZoneId.Groomed, 0, BlockRange(0, 0), es.toArray, 4)
    val (h, lower) = QueryExec.encodeKey(defn, Array.empty, Array(5L))
    val (_, upper) = QueryExec.encodeKey(defn, Array.empty, Array(8L))
    val hits = run.searchRange(h, lower, upper, defn.keyWidth, 99, ctx())
    assert(hits.map(_.sortValues(0)).sorted == Seq(5L, 6L, 7L, 8L))
    assert(run.offsetArray.isEmpty)
  }

  test("block touch accounting: batch reuses fetched blocks") {
    val es = (0 until 64).map(i => entry(i % 4, i / 4, 100 + i))
    val run = buildRun(I1, es, entriesPerBlock = 8)
    val c = ctx()
    scanRunWith(run, 0, 0, 100, 999, c)
    val first = c.blocksTouched
    assert(first > 0)
    // same scan again in the same batch context: no new blocks
    scanRunWith(run, 0, 0, 100, 999, c)
    assert(c.blocksTouched == first)
  }

  private def scanRunWith(run: IndexRun, eq: Long, lo: Long, hi: Long, ts: Long, c: ReadContext): Unit = {
    val (h, lower) = QueryExec.encodeKey(run.defn, Array(eq), Array(lo))
    val (_, upper) = QueryExec.encodeKey(run.defn, Array(eq), Array(hi))
    run.searchRange(h, lower, upper, run.defn.keyWidth, ts, c)
  }

  test("numDataBlocks rounds up for partial last block") {
    val run = buildRun(I1, (0 until 10).map(i => entry(i, i, 1)), entriesPerBlock = 4)
    assert(run.numDataBlocks == 3)
  }

  test("blockOf equals integer division for every index a run may hold") {
    for (epb <- Seq(1, 2, 3, 7, 8, 100, 511, 512, 1000)) {
      val run = buildRun(I1, Seq(entry(1, 1, 1)), entriesPerBlock = epb)
      var i = 0
      while (i < (1 << 20)) {
        if (run.blockOf(i) != i / epb) fail(s"entriesPerBlock=$epb i=$i: ${run.blockOf(i)}")
        i += 1
      }
      val largest = Int.MaxValue / I1.entryWidth
      assert(run.blockOf(largest) == largest / epb, s"entriesPerBlock=$epb")
    }
  }

  test("header synopsis matches data") {
    val run = fig2Run
    assert(run.synopsis.mins(0) == 1 && run.synopsis.maxs(0) == 8)
    assert(run.synopsis.mins(1) == 0 && run.synopsis.maxs(1) == 2)
  }

  test("RunCodec serialization roundtrips") {
    val run = fig2Run
    val back = persisted(run)
    assert(back.id == run.id && back.zone == run.zone && back.level == run.level)
    assert(back.blockRange == run.blockRange && back.count == run.count)
    assert(back.entriesPerBlock == run.entriesPerBlock)
    assert(back.synopsis == run.synopsis)
    assert(back.offsetArray == run.offsetArray)
    assert(back.data.sameElements(run.data))
    assert(scanRunSeq(back, 4, 1, 3, 100) == Seq((4L, 1L, 97L)))
  }

  private def scanRunSeq(run: IndexRun, eq: Long, lo: Long, hi: Long, ts: Long): Seq[(Long, Long, Long)] =
    scanRun(run, eq, lo, hi, ts)

  test("RunCodec preserves ancestors") {
    val base = fig2Run
    val run = new IndexRun(base.defn, 7, base.zone, 2, base.blockRange, base.count,
      base.entriesPerBlock, base.synopsis, base.offsetArray, base.data, Seq(1L, 2L, 3L))
    val back = persisted(run)
    assert(back.ancestorRunIds == Seq(1L, 2L, 3L))
  }

  test("merge produces globally sorted output covering union of ranges") {
    val r = new Random(12)
    val a = buildRun(I1, Seq.fill(100)(entry(r.nextInt(10), r.nextInt(10), r.nextInt(100))),
      id = 1, range = BlockRange(0, 4))
    val b = buildRun(I1, Seq.fill(80)(entry(r.nextInt(10), r.nextInt(10), 200 + r.nextInt(100))),
      id = 2, range = BlockRange(5, 9))
    val m = IndexRun.merge(I1, 3, ZoneId.Groomed, 1, Seq(a, b))
    assert(m.blockRange == BlockRange(0, 9))
    val w = m.defn.entryWidth
    (1 until m.count).foreach { i =>
      assert(KeyCodec.compareUnsigned(m.data, (i - 1) * w, m.data, i * w, w) <= 0)
    }
  }

  test("merge of duplicate-free inputs keeps every entry and equals one build of them all") {
    val a = Seq(entry(1, 1, 10), entry(2, 5, 20), entry(3, 2, 30))
    val b = Seq(entry(1, 1, 11), entry(2, 6, 20), entry(4, 0, 5))
    val m = IndexRun.merge(I1, 3, ZoneId.Groomed, 1, Seq(buildRun(I1, a, id = 1), buildRun(I1, b, id = 2)))
    assert(m.count == 6 && m.data.length == 6 * I1.entryWidth)
    assert(m.data.sameElements(buildRun(I1, a ++ b).data))
  }

  test("merge keeps all distinct versions, collapses exact duplicates") {
    val a = buildRun(I1, Seq(entry(1, 1, 10), entry(1, 1, 20)), id = 1)
    val b = buildRun(I1, Seq(entry(1, 1, 10), entry(1, 1, 30)), id = 2)
    val m = IndexRun.merge(I1, 3, ZoneId.Groomed, 1, Seq(a, b))
    assert(m.count == 3) // versions 10 (deduped), 20, 30
    assert(m.entries.map(_.beginTS).toSet == Set(10L, 20L, 30L))
  }

  test("merge result queries equivalently to searching both inputs") {
    val r = new Random(13)
    val esA = Seq.fill(200)(entry(r.nextInt(5), r.nextInt(20), r.nextInt(50)))
    val esB = Seq.fill(200)(entry(r.nextInt(5), r.nextInt(20), 50 + r.nextInt(50)))
    val a = buildRun(I1, esA, id = 1)
    val b = buildRun(I1, esB, id = 2)
    val m = IndexRun.merge(I1, 3, ZoneId.Groomed, 1, Seq(a, b))
    (0 until 5).foreach { dev =>
      val merged = scanRun(m, dev, 0, 19, 75).toSet
      val separate = Reconcile.bySet(Seq(
        searchOf(b, dev, 0, 19, 75), searchOf(a, dev, 0, 19, 75)))
        .map(e => (e.eqValues(0), e.sortValues(0), e.beginTS)).toSet
      assert(merged == separate, s"device $dev")
    }
  }

  private def searchOf(run: IndexRun, eq: Long, lo: Long, hi: Long, ts: Long) = {
    val (h, lower) = QueryExec.encodeKey(run.defn, Array(eq), Array(lo))
    val (_, upper) = QueryExec.encodeKey(run.defn, Array(eq), Array(hi))
    run.searchRange(h, lower, upper, run.defn.keyWidth, ts, ctx())
  }

  test("build rejects data size mismatch at construction") {
    intercept[IllegalArgumentException] {
      new IndexRun(I1, 0, ZoneId.Groomed, 0, BlockRange(0, 0), 2, 8,
        Synopsis(Array(0L, 0L), Array(0L, 0L)), None, new Array[Byte](I1.entryWidth)) // count=2 but 1 entry of data
    }
  }

  test("large run: offset array narrows search and finds every key") {
    val r = new Random(14)
    val n = 5000
    val es = (0 until n).map(i => entry(i % 100, i / 100, 1000 + i))
    val run = buildRun(I1, es, entriesPerBlock = 64)
    (0 until 100 by 7).foreach { dev =>
      val hits = scanRun(run, dev, 0, n / 100, Long.MaxValue)
      assert(hits.size == n / 100, s"device $dev")
      assert(hits.forall(_._1 == dev))
    }
  }
}
