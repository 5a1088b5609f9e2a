package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.storage.{CacheManager, SharedStorage, TierConfig}
import scala.util.Random
import Fixtures._

/** Index recovery from shared storage (paper §5.5). */
class RecoverySpec extends AnyFunSuite with TempDirs {

  private def newStorage(): SharedStorage =
    new SharedStorage(tempDir("umzi-recovery"))

  private def cfg = UmziConfig(I1, maxRunsPerLevel = 3, sizeRatio = 3,
    postGroomedStartLevel = 3, maxLevel = 5, entriesPerBlock = 8)

  private def groomBatch(index: UmziIndex, blockId: Long, n: Int): Unit = {
    val es = (0 until n).map(i =>
      entry(i % 4, blockId * 100 + i, blockId * 1000 + i, block = blockId, off = i,
        value = blockId)).toArray
    index.addGroomedRun(es, BlockRange(blockId, blockId))
  }

  test("runs persisted on create are listed and readable") {
    val storage = newStorage()
    val cache = new CacheManager(TierConfig(), Some(storage))
    val index = new UmziIndex(cfg, cache)
    (0 until 2).foreach(b => groomBatch(index, b, 8))
    assert(storage.listRunIds().size == 2)
    val run = storage.readRun(I1, storage.listRunIds().head)
    assert(run.count == 8)
  }

  test("merged-away runs are deleted from shared storage") {
    val storage = newStorage()
    val cache = new CacheManager(TierConfig(), Some(storage))
    val index = new UmziIndex(cfg, cache)
    (0 until 3).foreach(b => groomBatch(index, b, 8)) // K=3 triggers merge
    val ids = storage.listRunIds()
    // only the merged run file remains
    assert(ids.size == 1, s"got $ids")
    assert(storage.readRun(I1, ids.head).blockRange == BlockRange(0, 2))
  }

  test("recovery rebuilds identical query results") {
    val storage = newStorage()
    val index = new UmziIndex(cfg, new CacheManager(TierConfig(), Some(storage)))
    val r = new Random(40)
    (0 until 7).foreach(b => groomBatch(index, b, 16))
    val probes = Array.fill(100)((Array(r.nextInt(4).toLong),
      Array((r.nextInt(7) * 100 + r.nextInt(16)).toLong)))
    val before = QueryExec.batchLookup(index, probes, Long.MaxValue)
      .map(_.map(e => (e.beginTS, e.includedValues(0))))

    // simulate crash: fresh index instance recovered from shared storage
    val recovered = new UmziIndex(cfg, new CacheManager(TierConfig(), Some(storage)))
    recovered.recover(storage.listRuns(I1), recoveredWatermark = -1L)
    val after = QueryExec.batchLookup(recovered, probes, Long.MaxValue)
      .map(_.map(e => (e.beginTS, e.includedValues(0))))
    assert(after.toSeq == before.toSeq)
  }

  test("recovery keeps the largest run among overlapping ranges and discards the rest") {
    val merged = buildRun(I1, (0 until 24).map(i => entry(i % 4, i, i)),
      id = 10, level = 1, range = BlockRange(0, 2))
    val stale1 = buildRun(I1, (0 until 8).map(i => entry(i % 4, i, i)),
      id = 3, level = 0, range = BlockRange(0, 0))
    val stale2 = buildRun(I1, (8 until 16).map(i => entry(i % 4, i, i)),
      id = 4, level = 0, range = BlockRange(1, 1))
    val fresh = buildRun(I1, (0 until 8).map(i => entry(i % 4, 100 + i, 100 + i)),
      id = 11, level = 0, range = BlockRange(3, 3))
    val index = new UmziIndex(cfg)
    val discarded = index.recover(Seq(stale1, merged, fresh, stale2), -1L)
    assert(discarded.toSet == Set(3L, 4L))
    assert(index.groomedList.snapshot.map(_.id).toSet == Set(10L, 11L))
    // newest first
    assert(index.groomedList.snapshot.head.id == 11L)
  }

  test("recovery restores the evolve watermark from post-groomed runs") {
    val post = buildRun(I1, (0 until 8).map(i => entry(i % 4, i, i, ZoneId.PostGroomed)),
      id = 20, zone = ZoneId.PostGroomed, level = 3, range = BlockRange(0, 4))
    val coveredGroomed = buildRun(I1, (0 until 8).map(i => entry(i % 4, i, i)),
      id = 5, level = 1, range = BlockRange(2, 4))
    val liveGroomed = buildRun(I1, (0 until 8).map(i => entry(i % 4, 50 + i, 50 + i)),
      id = 6, level = 0, range = BlockRange(5, 5))
    val index = new UmziIndex(cfg)
    index.recover(Seq(post, coveredGroomed, liveGroomed), recoveredWatermark = 4L)
    assert(index.maxCoveredGroomedId == 4L)
    // the covered groomed run is invisible to queries after recovery
    val visible = index.visibleRuns()
    assert(!visible.exists(_.id == 5L))
    assert(visible.exists(_.id == 6L))
    assert(visible.exists(_.id == 20L))
  }

  test("recovery from persisted runs after evolve") {
    val storage = newStorage()
    val index = new UmziIndex(cfg, new CacheManager(TierConfig(), Some(storage)))
    (0 until 4).foreach(b => groomBatch(index, b, 8))
    val moved = (0 until 2).flatMap(b => (0 until 8).map(i =>
      entry(i % 4, b * 100 + i, b * 1000 + i, ZoneId.PostGroomed, 900 + b, i, value = b))).toArray
    index.evolve(moved, BlockRange(0, 1))
    storage.writeCheckpoint(index.maxCoveredGroomedId, 0L)

    val recovered = new UmziIndex(cfg, new CacheManager(TierConfig(), Some(storage)))
    val (watermark, psn) = storage.readCheckpoint()
    assert(psn == 0L)
    recovered.recover(storage.listRuns(I1), watermark)
    assert(recovered.maxCoveredGroomedId == 1L)
    // all 4 blocks' data still answer correctly
    (0 until 4).foreach { b =>
      val got = QueryExec.pointLookup(recovered, Array(0L), Array(b * 100L), Long.MaxValue)
      assert(got.map(_.beginTS) == Some(b * 1000L), s"block $b")
    }
  }

  test("run IDs continue past recovered maximum") {
    val index = new UmziIndex(cfg)
    val r = buildRun(I1, Seq(entry(0, 0, 0)), id = 41, range = BlockRange(0, 0))
    index.recover(Seq(r), -1L)
    assert(index.allocRunId() > 41L)
  }

  test("checkpoint roundtrip") {
    val storage = newStorage()
    assert(storage.readCheckpoint() == ((-1L, -1L)))
    storage.writeCheckpoint(17L, 3L)
    assert(storage.readCheckpoint() == ((17L, 3L)))
    storage.writeCheckpoint(25L, 4L)
    assert(storage.readCheckpoint() == ((25L, 4L)))
  }
}
