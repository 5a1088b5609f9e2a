package repro.dsv2

import repro.core.Fixtures.TempDirs
import repro.{Oracle, SparkSpec}
import repro.wildfire.{Shard, Upsert}
import repro.wildfire.PostGroomFaults.postGroomWithoutPublish

/** DataSourceV2 unified multi-zone scan: consistency, pushdown and data
  * skipping (DESIGN.md §3).
  */
class UmziDataSourceSpec extends SparkSpec with TempDirs {

  /** Shard with data spread across both zones: blocks 0-1 post-groomed,
    * blocks 2-3 still groomed-only.
    */
  private def mixedShard(): Shard = {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    def cycle(dev: Long, msgBase: Long): Unit = {
      shard.ingest((0 until 10).map(i => Upsert(dev, msgBase + i, msgBase + i, i)))
      shard.groomOnce()
    }
    cycle(1, 0); cycle(2, 100)
    shard.postGroomOnce(); shard.indexerPoll()
    cycle(3, 200); cycle(4, 300)
    shard
  }

  test("unified scan sees both zones exactly once") {
    val shard = mixedShard()
    val df = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
    assert(df.count() == 40)
    import spark.implicits._
    val keys = df.select($"deviceId", $"msgNum").as[(Long, Long)].collect()
    assert(keys.distinct.length == 40, "no duplicates across zones")
  }

  test("scan excludes covered groomed blocks via the watermark rule") {
    val shard = mixedShard()
    // groomed blocks 0 and 1 still exist on disk but are covered
    assert(repro.wildfire.BlockMeta.listIn(shard.groomedDir).size == 4)
    val (_, coveredHi, _) = shard.postGroomer.readState()
    assert(coveredHi == 1)
    // still exactly 40 rows: covered blocks not double counted
    assert(UmziSnapshot.raw(spark, shard.sharedRoot.toString).count() == 40)
  }

  test("updated keys resolve to the latest version in the snapshot") {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    shard.ingest(Seq(Upsert(1, 1, 100, 0)))
    shard.groomOnce()
    shard.postGroomOnce(); shard.indexerPoll()
    shard.ingest(Seq(Upsert(1, 1, 200, 0))) // update, still groomed-only
    shard.groomOnce()
    import spark.implicits._
    val snap = UmziSnapshot.scan(spark, shard.sharedRoot.toString)
      .select($"value").as[Long].collect()
    assert(snap.toSeq == Seq(200L))
  }

  test("filter pushdown skips non-matching blocks") {
    val shard = mixedShard()
    import spark.implicits._
    UmziDataSource.blocksPlanned.reset()
    UmziDataSource.blocksSkipped.reset()
    val hits = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
      .filter($"deviceId" === 3L)
      .collect()
    assert(hits.length == 10)
    assert(UmziDataSource.blocksSkipped.sum > 0,
      "device filter must skip blocks of other devices")
  }

  test("msgNum range pushdown prunes by sidecar min/max") {
    val shard = mixedShard()
    import spark.implicits._
    UmziDataSource.blocksPlanned.reset()
    UmziDataSource.blocksSkipped.reset()
    val hits = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
      .filter($"msgNum" >= 300L && $"msgNum" <= 305L)
      .collect()
    assert(hits.length == 6)
    assert(UmziDataSource.blocksSkipped.sum > 0)
    assert(UmziDataSource.blocksPlanned.sum < UmziDataSource.blocksPlanned.sum +
      UmziDataSource.blocksSkipped.sum)
  }

  test("pushdown never changes results (residual evaluation)") {
    val shard = mixedShard()
    import spark.implicits._
    val filtered = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
      .filter($"deviceId" === 2L && $"msgNum" < 105L)
      .select($"msgNum").as[Long].collect().sorted
    assert(filtered.toSeq == Seq(100L, 101L, 102L, 103L, 104L))
  }

  test("time travel: queryTS hides later versions") {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    shard.ingest(Seq(Upsert(1, 1, 100, 0)))
    shard.groomOnce()
    val ts1 = shard.lookup(1, 1).get.beginTS
    shard.ingest(Seq(Upsert(1, 1, 200, 0)))
    shard.groomOnce()
    import spark.implicits._
    val atTs1 = UmziSnapshot.scan(spark, shard.sharedRoot.toString, ts1)
      .select($"value").as[Long].collect()
    assert(atTs1.toSeq == Seq(100L))
    val before = UmziSnapshot.scan(spark, shard.sharedRoot.toString, ts1 - 1)
    assert(before.count() == 0)
  }

  /** The latest-version snapshot equals the DuckDB oracle over every groomed
    * block ever written (the full version history).
    */
  private def assertSnapshotMatchesOracle(shard: Shard): Unit = {
    import spark.implicits._
    val hist = repro.wildfire.BlockMeta.listIn(shard.groomedDir).map { m =>
      spark.read.parquet(m.file).select($"deviceId", $"msgNum", $"value", $"beginTS")
    }.reduce(_ unionByName _)
    val snap = UmziSnapshot.scan(spark, shard.sharedRoot.toString)
      .select("deviceId", "msgNum", "value", "beginTS")
    Oracle.assertEquivalent(snap,
      """SELECT deviceId, msgNum, value, beginTS FROM (
        |  SELECT deviceId, msgNum, value, beginTS,
        |         row_number() OVER (PARTITION BY deviceId, msgNum
        |                            ORDER BY CAST(beginTS AS BIGINT) DESC) AS rn
        |  FROM hist
        |) WHERE rn = 1""".stripMargin,
      "hist" -> hist)
  }

  /** A post-groom whose state publish is lost, as in a crash between its
    * block writes and the publish: `postgroom-state` goes back to what it was.
    */
  test("snapshot equals DuckDB oracle on a mixed-zone shard") {
    assertSnapshotMatchesOracle(mixedShard())
  }

  test("a post-groom that stops before publishing its state stays invisible") {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    import spark.implicits._
    def assertRaw(expected: Seq[Upsert]): Unit = {
      val raw = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
        .select($"deviceId", $"msgNum", $"value").as[(Long, Long, Long)].collect().toSeq
      assert(raw.sorted == expected.map(u => (u.deviceId, u.msgNum, u.value)).sorted)
      assertSnapshotMatchesOracle(shard)
    }
    def groom(ups: Seq[Upsert]): Unit = { shard.ingest(ups); shard.groomOnce() }
    val originals = (0 until 20).map(i => Upsert(1, i, i, i))
    groom(originals)
    postGroomWithoutPublish(shard) // the first PSN: no state file yet
    assertRaw(originals)
    shard.postGroomOnce(); shard.indexerPoll()
    assertRaw(originals)
    // a lost publish of a post-groom that replaces five rows, so it also
    // writes an endTS delta; it writes one block per updated msgNum
    val updates = (0 until 5).map(i => Upsert(1, i, 100 + i, i))
    groom(updates)
    postGroomWithoutPublish(shard)
    assertRaw(originals ++ updates)
    // redone with one more, far msgNum, the same PSN writes two blocks, so
    // three blocks of the lost attempt carry a published PSN
    val far = Upsert(1, 1000, 1000, 0)
    groom(Seq(far))
    assert(shard.postGroomOnce().get.blocks.size == 2)
    assertRaw(originals.drop(5) ++ updates :+ far)
  }

  test("endTS delta hides replaced post-groomed versions at later timestamps") {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    shard.ingest(Seq(Upsert(5, 5, 100, 0)))
    shard.groomOnce(); shard.postGroomOnce(); shard.indexerPoll()
    shard.ingest(Seq(Upsert(5, 5, 200, 0)))
    shard.groomOnce(); shard.postGroomOnce(); shard.indexerPoll()
    import spark.implicits._
    // raw scan at latest: the replaced version is endTS-filtered, so even
    // WITHOUT the latest() window only the new version appears
    val raw = UmziSnapshot.raw(spark, shard.sharedRoot.toString)
      .select($"value").as[Long].collect()
    assert(raw.toSeq == Seq(200L))
  }

  test("raw time travel returns exactly the version visible at each beginTS") {
    val shard = new Shard(spark, tempDir("umzi-dsv2"))
    // one key through three PSNs; the middle PSN carries two versions, so
    // both the delta endTS and the block endTS column decide visibility
    val versions = Seq(Seq(100L), Seq(200L, 300L), Seq(400L)).flatMap { psnValues =>
      val vs = psnValues.map { v =>
        shard.ingest(Seq(Upsert(7, 7, v, 0))); shard.groomOnce()
        shard.lookup(7, 7).get.beginTS -> v
      }
      shard.postGroomOnce(); shard.indexerPoll()
      vs
    }
    assert(shard.indexer.indexedPsn == 2)
    import spark.implicits._
    val root = shard.sharedRoot.toString
    def rawValues(ts: Long): Seq[Long] =
      UmziSnapshot.raw(spark, root, ts).select($"value").as[Long].collect().toSeq
    assert(rawValues(versions.head._1 - 1).isEmpty)
    versions.zip(versions.drop(1).map(_._1 - 1) :+ Long.MaxValue).foreach {
      case ((ts, value), lastTs) =>
        assert(rawValues(ts) == Seq(value), s"at beginTS $ts")
        assert(rawValues(lastTs) == Seq(value), s"at $lastTs, before the next version")
    }
  }

  test("a shard root containing a quote scans like any other") {
    val shard = new Shard(spark, tempDir("umzi-o'brien"))
    val model = scala.collection.mutable.Map.empty[(Long, Long), Long]
    def cycle(ups: Seq[Upsert]): Unit = {
      shard.ingest(ups); shard.groomOnce()
      ups.foreach(u => model((u.deviceId, u.msgNum)) = u.value)
    }
    cycle((0 until 10).map(i => Upsert(1, i, i, i)))
    shard.postGroomOnce(); shard.indexerPoll()
    // replaces post-groomed rows, so an endTS delta file is read too
    cycle((0 until 5).map(i => Upsert(1, i, 100 + i, i)))
    shard.postGroomOnce(); shard.indexerPoll()
    cycle((0 until 10).map(i => Upsert(2, i, i, i))) // groomed only
    val root = shard.sharedRoot.toString
    assert(root.contains("'"))
    assert(UmziSnapshot.raw(spark, root).count() == model.size)
    import spark.implicits._
    val snap = UmziSnapshot.scan(spark, root)
      .select($"deviceId", $"msgNum", $"value").as[(Long, Long, Long)].collect()
    assert(snap.length == model.size)
    assert(snap.map { case (d, m, v) => (d, m) -> v }.toMap == model.toMap)
  }

  test("missing path option fails clearly") {
    intercept[Exception] {
      spark.read.format("umzi").load().collect()
    }
  }
}
