package repro.wildfire

import repro.core.Fixtures.TempDirs
import repro.SparkSpec
import repro.core._

/** Indexer daemon: IndexedPSN/MaxPSN polling and evolve (paper §5.4, Fig 5). */
class IndexerSpec extends SparkSpec with TempDirs {

  private def newShard(): Shard =
    new Shard(spark, tempDir("umzi-indexer"))

  private def cycle(shard: Shard, ups: Seq[Upsert]): Unit = {
    shard.ingest(ups); shard.groomOnce()
  }

  test("poll with no published PSNs does nothing") {
    val shard = newShard()
    assert(shard.indexerPoll() == 0)
    assert(shard.indexer.indexedPsn == -1)
  }

  test("poll evolves exactly the pending PSNs, in order") {
    val shard = newShard()
    cycle(shard, (0 until 8).map(i => Upsert(1, i, i, i)))
    shard.postGroomOnce()
    cycle(shard, (0 until 8).map(i => Upsert(1, 100 + i, i, i)))
    shard.postGroomOnce()
    // two PSNs pending
    assert(shard.indexerPoll() == 2)
    assert(shard.indexer.indexedPsn == 1)
    assert(shard.indexerPoll() == 0, "second poll is a no-op")
  }

  test("evolve raises the watermark and GCs covered groomed runs") {
    val shard = newShard()
    cycle(shard, (0 until 8).map(i => Upsert(1, i, i, i)))
    cycle(shard, (0 until 8).map(i => Upsert(1, 50 + i, i, i)))
    assert(shard.index.groomedList.size == 2)
    shard.postGroomOnce()
    shard.indexerPoll()
    assert(shard.index.maxCoveredGroomedId == 1)
    assert(shard.index.groomedList.size == 0, "covered groomed runs GCed")
    assert(shard.index.postGroomedList.size >= 1)
  }

  test("asynchronous evolution is invisible to query results (paper §5.4)") {
    val shard = newShard()
    cycle(shard, (0 until 20).map(i => Upsert(i % 4, i, 100 + i, i)))
    shard.postGroomOnce()
    // before the indexer runs: answers come from the groomed portion
    val before = (0 until 20).map(i => shard.lookup(i % 4, i).get)
    assert(before.forall(_.rid.zone == ZoneId.Groomed))
    shard.indexerPoll()
    val after = (0 until 20).map(i => shard.lookup(i % 4, i).get)
    assert(after.forall(_.rid.zone == ZoneId.PostGroomed))
    // same logical answers either way
    assert(before.map(e => (e.beginTS, e.includedValues(0))) ==
      after.map(e => (e.beginTS, e.includedValues(0))))
  }

  test("checkpoint is persisted after each evolve") {
    val shard = newShard()
    cycle(shard, (0 until 8).map(i => Upsert(1, i, i, i)))
    shard.postGroomOnce()
    shard.indexerPoll()
    val (watermark, psn) = shard.runStorage.readCheckpoint()
    assert(psn == 0)
    assert(watermark == shard.index.maxCoveredGroomedId)
  }

  test("a redone post-groom's lost attempt leaves no extra blocks in the index") {
    val shard = newShard()
    val originals = (0 until 20).map(i => Upsert(1, i, i, i))
    cycle(shard, originals)
    shard.postGroomOnce(); shard.indexerPoll()
    // a post-groom replacing five rows writes one block per msgNum, then
    // loses its publish; redone with one more, far msgNum, the same PSN
    // writes two blocks, so three blocks of the lost attempt carry its PSN
    val updates = (0 until 5).map(i => Upsert(1, i, 100 + i, i))
    cycle(shard, updates)
    PostGroomFaults.postGroomWithoutPublish(shard)
    val far = Upsert(1, 1000, 1000, 0)
    cycle(shard, Seq(far))
    assert(shard.postGroomOnce().get.blocks.size == 2)
    val staleBlocks = BlockMeta.listIn(shard.postGroomer.postDir).count(_.blockId >= shard.postGroomer.readState()._3)
    assert(staleBlocks == 3)
    assert(shard.indexerPoll() == 1)

    // every version the published blocks hold, once, and nothing else
    val versions = shard.index.visibleRuns().flatMap(_.entries)
      .map(e => (e.eqValues(0), e.sortValues(0), e.includedValues(0)))
    assert(versions.size == versions.distinct.size, "a version indexed twice")
    assert(versions.sorted == (originals ++ updates :+ far).map(u => (u.deviceId, u.msgNum, u.value)).sorted)
    (updates :+ far).foreach(u => assert(shard.lookup(u.deviceId, u.msgNum).get.includedValues(0) == u.value))
  }
}
