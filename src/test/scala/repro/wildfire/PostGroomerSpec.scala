package repro.wildfire

import repro.core.Fixtures.TempDirs
import repro.SparkSpec
import repro.core._

/** Post-groom operation: groomed -> post-groomed zone with partition-key
  * re-organization, prevRID/endTS setting and PSN publication (paper §2.1).
  */
class PostGroomerSpec extends SparkSpec with TempDirs {

  private def newShard(): Shard =
    new Shard(spark, tempDir("umzi-postgroomer"))

  private def groomBatch(shard: Shard, ups: Seq[Upsert]): BlockMeta = {
    shard.ingest(ups)
    shard.groomOnce().get
  }

  test("post-groom covers the pending groomed blocks and publishes a PSN") {
    val shard = newShard()
    groomBatch(shard, (0 until 10).map(i => Upsert(1, i, i, i)))
    groomBatch(shard, (0 until 10).map(i => Upsert(1, 100 + i, i, i)))
    val res = shard.postGroomOnce().get
    assert(res.psn == 0)
    assert(res.coveredRange == BlockRange(0, 1))
    val (maxPsn, coveredHi, _) = shard.postGroomer.readState()
    assert(maxPsn == 0 && coveredHi == 1)
    assert(res.blocks.nonEmpty)
    assert(res.blocks.map(_.count).sum == 20)
  }

  test("post-groomed blocks are organized by msgNum ranges (partition key)") {
    val shard = newShard()
    groomBatch(shard, (0 until 40).map(i => Upsert(i % 4, i * 10, i, i)))
    val res = shard.postGroomOnce().get
    assert(res.blocks.size > 1, "expected multiple partition blocks")
    // partition blocks cover disjoint msg ranges
    val ranges = res.blocks.map(b => (b.minMsg, b.maxMsg)).sortBy(_._1)
    ranges.sliding(2).foreach {
      case Seq(a, b) => assert(a._2 < b._1, s"overlap: $a vs $b")
      case _ =>
    }
  }

  test("post-groom with nothing pending is a no-op") {
    val shard = newShard()
    assert(shard.postGroomOnce().isEmpty)
  }

  test("PSNs increment across post-groom operations") {
    val shard = newShard()
    groomBatch(shard, (0 until 5).map(i => Upsert(1, i, i, i)))
    assert(shard.postGroomOnce().get.psn == 0)
    groomBatch(shard, (0 until 5).map(i => Upsert(1, 100 + i, i, i)))
    val res = shard.postGroomOnce().get
    assert(res.psn == 1)
    assert(res.coveredRange == BlockRange(1, 1))
  }

  test("post-groomed rows carry version chains: endTS within the batch") {
    val shard = newShard()
    // two versions of (1,5) in different groom cycles, one open key (1,6)
    groomBatch(shard, Seq(Upsert(1, 5, 100, 0), Upsert(1, 6, 600, 1)))
    groomBatch(shard, Seq(Upsert(1, 5, 101, 0)))
    val res = shard.postGroomOnce().get
    import spark.implicits._
    val rows = res.blocks.map(b => spark.read.parquet(b.file)).reduce(_ unionByName _)
      .select($"msgNum", $"value", $"beginTS", $"endTS", $"prevZone")
      .as[(Long, Long, Long, Long, Long)].collect().sortBy(r => (r._1, r._3))
    val v100 = rows.find(r => r._1 == 5 && r._2 == 100).get
    val v101 = rows.find(r => r._1 == 5 && r._2 == 101).get
    assert(v100._4 == v101._3, "old version's endTS = new version's beginTS")
    assert(v101._4 == Long.MaxValue, "latest version stays open")
    assert(rows.find(_._1 == 6).get._4 == Long.MaxValue)
  }

  test("prevRID of the first version comes from the post-groomed index (cross-PSN)") {
    val shard = newShard()
    groomBatch(shard, Seq(Upsert(2, 7, 100, 0)))
    shard.postGroomOnce()
    shard.indexerPoll() // evolve so the post-groomed index portion knows (2,7)
    val oldRid = shard.lookup(2, 7).get.rid
    assert(oldRid.zone == ZoneId.PostGroomed)

    groomBatch(shard, Seq(Upsert(2, 7, 200, 0)))
    val res = shard.postGroomOnce().get
    import spark.implicits._
    val row = res.blocks.map(b => spark.read.parquet(b.file)).reduce(_ unionByName _)
      .filter($"msgNum" === 7 && $"value" === 200)
      .select($"prevZone", $"prevBlock", $"prevOffset")
      .as[(Long, Long, Long)].head()
    assert(row == ((ZoneId.PostGroomed.code.toLong, oldRid.blockId, oldRid.offset.toLong)))
  }

  test("endTS delta file is written for replaced post-groomed records") {
    val shard = newShard()
    groomBatch(shard, Seq(Upsert(3, 9, 100, 0)))
    shard.postGroomOnce()
    shard.indexerPoll()
    val oldRid = shard.lookup(3, 9).get.rid

    groomBatch(shard, Seq(Upsert(3, 9, 200, 0)))
    val res = shard.postGroomOnce().get
    import spark.implicits._
    val delta = spark.read.parquet(
      shard.postGroomer.endtsDir.resolve(s"psn-${res.psn}.parquet").toString)
      .as[(Long, Long, Long)].collect()
    assert(delta.length == 1)
    assert(delta.head._1 == oldRid.blockId && delta.head._2 == oldRid.offset.toLong)
    // endTS equals the replacing version's beginTS
    val newTs = res.blocks.map(b => spark.read.parquet(b.file)).reduce(_ unionByName _)
      .filter($"value" === 200).select($"beginTS").as[Long].head()
    assert(delta.head._3 == newTs)
  }

  test("post-groomed RID offsets address the exact parquet row") {
    val shard = newShard()
    groomBatch(shard, (0 until 12).map(i => Upsert(i % 3, i, 5000 + i, i)))
    val res = shard.postGroomOnce().get
    shard.indexerPoll()
    import spark.implicits._
    res.blocks.foreach { b =>
      val byOffset = spark.read.parquet(b.file)
        .select($"offset", $"deviceId", $"msgNum", $"value")
        .as[(Long, Long, Long, Long)].collect()
        .map(r => r._1 -> (r._2, r._3, r._4)).toMap
      byOffset.foreach { case (off, (dev, msg, v)) =>
        val e = shard.lookup(dev, msg).get
        if (e.rid.blockId == b.blockId) {
          assert(byOffset(e.rid.offset.toLong) == ((dev, msg, v)))
        }
        assert(off >= 0 && off < b.count)
      }
    }
  }
}
