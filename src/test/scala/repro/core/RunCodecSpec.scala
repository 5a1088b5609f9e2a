package repro.core

import java.io.IOException
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.storage.{CacheManager, SharedStorage, TierConfig}
import scala.util.Random

/** The run file that `SharedStorage.writeRun` leaves (paper §5.5, §6)
  * against [[ReferenceRunCodec]], byte for byte, under every index shape;
  * and torn or over-long files failing every read.
  */
class RunCodecSpec extends AnyFunSuite with Fixtures.TempDirs {

  private val PureRange = IndexDef(Seq.empty, Seq("sort0", "sort1"), Seq("inc0"))

  private def runOf(defn: IndexDef, n: Int, seed: Int): IndexRun = {
    val r = new Random(seed)
    val es = Array.fill(n)(IndexEntry(Array.fill(defn.nEq)(r.nextInt(50).toLong),
      Array.fill(defn.nSort)(r.nextLong()), r.nextInt(1000).toLong,
      Rid(ZoneId.PostGroomed, r.nextInt(9).toLong, r.nextInt(100)), Array.fill(defn.nIncluded)(r.nextLong())))
    IndexRun.build(defn, seed.toLong, ZoneId.PostGroomed, 3, BlockRange(4, 9), es, 16)
  }

  private def withAncestors(run: IndexRun, ancestors: Seq[Long]): IndexRun =
    new IndexRun(run.defn, run.id, run.zone, run.level, run.blockRange, run.count,
      run.entriesPerBlock, run.synopsis, run.offsetArray, run.data, ancestors)

  /** A fresh storage holding `runs`. */
  private def storageWith(runs: IndexRun*): SharedStorage = {
    val s = new SharedStorage(tempDir("umzi-codec"))
    runs.foreach(s.writeRun)
    s
  }

  private val cases = Seq(
    "I1" -> runOf(IndexDef.I1, 500, 1),
    "I2" -> runOf(IndexDef.I2, 500, 2),
    "I3" -> runOf(IndexDef.I3, 500, 3),
    "pure range" -> runOf(PureRange, 500, 4),
    "empty run" -> runOf(IndexDef.I1, 0, 5),
    "ancestors" -> withAncestors(runOf(IndexDef.I1, 40, 6), Seq(11L, 12L, 13L)),
    "run larger than one 1 MiB slice" -> runOf(IndexDef.I1, 50000, 7))

  test("the cases cover no offset array, no entries, ancestors and several slices") {
    val byName = cases.toMap
    assert(byName("pure range").offsetArray.isEmpty && byName("I1").offsetArray.nonEmpty)
    assert(byName("empty run").count == 0 && byName("ancestors").ancestorRunIds.nonEmpty)
    assert(byName("run larger than one 1 MiB slice").data.length > 2 * (1 << 20))
  }

  cases.foreach { case (name, run) =>
    test(s"$name: the written file equals the reference bytes and reads back") {
      val s = storageWith(run)
      assert(Files.readAllBytes(s.runFile(run.id)).sameElements(ReferenceRunCodec.serialize(run)))
      val back = s.readRun(run.defn, run.id)
      assert(back.id == run.id && back.zone == run.zone && back.level == run.level)
      assert(back.blockRange == run.blockRange && back.count == run.count)
      assert(back.entriesPerBlock == run.entriesPerBlock && back.synopsis == run.synopsis)
      assert(back.offsetArray == run.offsetArray && back.ancestorRunIds == run.ancestorRunIds)
      assert(back.data.sameElements(run.data))
    }
  }

  test("a torn or over-long run file fails readRun, listRuns and recovery") {
    val good = runOf(IndexDef.I1, 100, 8)
    val run = runOf(IndexDef.I1, 200, 9)
    val s = storageWith(good, run)
    val bytes = Files.readAllBytes(s.runFile(run.id))
    val headerEnd = bytes.length - run.data.length
    val damaged = Seq(10, headerEnd - 2, headerEnd, headerEnd + run.data.length / 2)
      .map(n => s"cut at byte $n" -> bytes.take(n)) :+ ("one byte appended" -> (bytes :+ 0.toByte))
    damaged.foreach { case (what, b) =>
      Files.write(s.runFile(run.id), b)
      withClue(what) {
        intercept[IOException](s.readRun(IndexDef.I1, run.id))
        intercept[IOException](s.listRuns(IndexDef.I1))
        val index = new UmziIndex(UmziConfig(IndexDef.I1), new CacheManager(TierConfig(), Some(s)))
        intercept[IOException](index.recover(s.listRuns(IndexDef.I1), recoveredWatermark = -1L))
        assert(index.allRuns().isEmpty)
      }
    }
    Files.write(s.runFile(run.id), bytes)
    assert(s.listRuns(IndexDef.I1).map(_.id) == Seq(good.id, run.id))
  }

  test("a data length that disagrees with the entry count fails before allocating") {
    val run = runOf(IndexDef.I1, 20, 10)
    val s = storageWith(run)
    val bytes = Files.readAllBytes(s.runFile(run.id))
    val lenAt = bytes.length - run.data.length - 4
    java.nio.ByteBuffer.wrap(bytes).putInt(lenAt, Int.MaxValue)
    Files.write(s.runFile(run.id), bytes)
    val e = intercept[IOException](s.readRun(IndexDef.I1, run.id))
    assert(e.getMessage.contains("data bytes for 20 entries"))
  }
}
