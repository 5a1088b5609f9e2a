package repro.wildfire

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import repro.core.Fixtures.TempDirs
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.dsv2.UmziSnapshot
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** End-to-end shard lifecycle: ingest -> groom -> post-groom -> evolve,
  * with index lookups and unified snapshot scans checked against a model
  * and the DuckDB oracle.
  */
class ShardE2ESpec extends SparkSpec with TempDirs {

  /** Run `cycles` groom cycles (post-groom every `postGroomEvery`), keeping a
    * driver-side model of the latest version per key.
    */
  private def drive(shard: Shard, cycles: Int, perCycle: Int, postGroomEvery: Int,
      updatePercent: Double, seed: Long): mutable.Map[(Long, Long), Long] = {
    val w = new Workload(nDevices = 8, sequentialKeys = true,
      updatePercent = updatePercent, seed = seed)
    val model = mutable.Map.empty[(Long, Long), Long] // pk -> latest value
    (0 until cycles).foreach { c =>
      val batch = w.nextBatch(perCycle)
      batch.foreach(u => model((u.deviceId, u.msgNum)) = u.value)
      shard.ingest(batch)
      shard.groomOnce()
      if ((c + 1) % postGroomEvery == 0) {
        shard.postGroomOnce()
        shard.indexerPoll()
      }
    }
    model
  }

  /** Ground-truth version history: union of every groomed block ever written. */
  private def history(shard: Shard): DataFrame = {
    import shard.spark.implicits._
    BlockMeta.listIn(shard.groomedDir).map { m =>
      spark.read.parquet(m.file).select($"deviceId", $"msgNum", $"value", $"beginTS")
    }.reduce(_ unionByName _)
  }

  test("index lookups return the latest version of every key across zones") {
    val shard = new Shard(spark, tempDir("umzi-e2e"))
    val model = drive(shard, cycles = 6, perCycle = 40, postGroomEvery = 3,
      updatePercent = 30.0, seed = 60)
    model.foreach { case ((dev, msg), v) =>
      val hit = shard.lookup(dev, msg)
      assert(hit.isDefined, s"missing key ($dev,$msg)")
      assert(hit.get.includedValues(0) == v, s"key ($dev,$msg)")
    }
  }

  test("range scans agree with the model across zones") {
    val shard = new Shard(spark, tempDir("umzi-e2e"))
    val model = drive(shard, cycles = 6, perCycle = 40, postGroomEvery = 2,
      updatePercent = 20.0, seed = 61)
    (0L until 8L).foreach { dev =>
      val expected = model.collect { case ((d, m), v) if d == dev => (m, v) }.toSet
      val got = shard.scan(dev, 0, Long.MaxValue / 2)
        .map(e => (e.sortValues(0), e.includedValues(0))).toSet
      assert(got == expected, s"device $dev")
    }
  }

  /** The latest snapshot equals DuckDB's latest version per key of the
    * full version history.
    */
  private def assertSnapshotMatchesOracle(shard: Shard): Unit = {
    val snap = UmziSnapshot.scan(spark, shard.sharedRoot.toString)
      .select("deviceId", "msgNum", "value", "beginTS")
    Oracle.assertEquivalent(snap,
      """SELECT deviceId, msgNum, value, beginTS FROM (
        |  SELECT deviceId, msgNum, value, beginTS,
        |         row_number() OVER (PARTITION BY deviceId, msgNum
        |                            ORDER BY CAST(beginTS AS BIGINT) DESC) AS rn
        |  FROM hist
        |) WHERE rn = 1""".stripMargin,
      "hist" -> history(shard))
  }

  test("unified snapshot scan matches DuckDB over the full version history") {
    val shard = new Shard(spark, tempDir("umzi-e2e"))
    drive(shard, cycles = 6, perCycle = 30, postGroomEvery = 3,
      updatePercent = 40.0, seed = 62)
    assertSnapshotMatchesOracle(shard)
  }

  test("time-travel snapshot matches DuckDB at a historical timestamp") {
    val shard = new Shard(spark, tempDir("umzi-e2e"))
    drive(shard, cycles = 6, perCycle = 30, postGroomEvery = 3,
      updatePercent = 40.0, seed = 63)
    import spark.implicits._
    val hist = history(shard)
    val allTs = hist.select($"beginTS").as[Long].collect().sorted
    val midTs = allTs(allTs.length / 2)
    val snap = UmziSnapshot.scan(spark, shard.sharedRoot.toString, midTs)
      .select("deviceId", "msgNum", "value", "beginTS")
    Oracle.assertEquivalent(snap,
      s"""SELECT deviceId, msgNum, value, beginTS FROM (
         |  SELECT deviceId, msgNum, value, beginTS,
         |         row_number() OVER (PARTITION BY deviceId, msgNum
         |                            ORDER BY CAST(beginTS AS BIGINT) DESC) AS rn
         |  FROM hist WHERE CAST(beginTS AS BIGINT) <= $midTs
         |) WHERE rn = 1""".stripMargin,
      "hist" -> hist)
  }

  test("index recovery after a crash preserves all answers") {
    val root = tempDir("umzi-e2e")
    val shard = new Shard(spark, root)
    val model = drive(shard, cycles = 5, perCycle = 30, postGroomEvery = 2,
      updatePercent = 25.0, seed = 64)

    // "crash": new shard instance over the same shared storage
    val revived = new Shard(spark, root)
    assert(revived.index.allRuns().isEmpty, "fresh instance starts empty")
    revived.recoverIndex()
    assert(revived.index.allRuns().nonEmpty)
    model.foreach { case ((dev, msg), v) =>
      val hit = revived.lookup(dev, msg)
      assert(hit.isDefined && hit.get.includedValues(0) == v, s"key ($dev,$msg)")
    }
    assert(revived.indexer.indexedPsn == shard.indexer.indexedPsn)
  }

  test("ingest continues correctly after recovery") {
    val root = tempDir("umzi-e2e")
    val shard = new Shard(spark, root)
    drive(shard, cycles = 4, perCycle = 20, postGroomEvery = 2,
      updatePercent = 0.0, seed = 65)
    val revived = new Shard(spark, root)
    revived.recoverIndex()
    // new data after recovery: beginTS keeps rising, lookups work
    revived.ingest(Seq(Upsert(1, 999_999, 42, 0)))
    val meta = revived.groomOnce().get
    assert(meta.blockId > 3, "block IDs must continue past pre-crash blocks")
    assert(revived.lookup(1, 999_999).get.includedValues(0) == 42)
  }

  test("a shard whose root moved recovers, reads and grooms from the new root") {
    val root = tempDir("umzi-e2e")
    val shard = new Shard(spark, root)
    val model = drive(shard, cycles = 5, perCycle = 30, postGroomEvery = 2,
      updatePercent = 25.0, seed = 66)
    def answers(s: Shard): Seq[Option[(Rid, Long, Long)]] = model.keys.toSeq.sorted.map { case (dev, msg) =>
      s.lookup(dev, msg).map(e => (e.rid, e.beginTS, e.includedValues(0)))
    }
    val before = answers(shard)

    val moved = tempDir("umzi-e2e-moved").resolve("shard")
    Files.move(root, moved)
    val revived = new Shard(spark, moved)
    revived.recoverIndex()
    assert(answers(revived) == before)

    // groom, post-groom (which reads the groomed block left uncovered) and poll
    model ++= drive(revived, cycles = 2, perCycle = 30, postGroomEvery = 2,
      updatePercent = 25.0, seed = 67)
    assert(revived.indexer.indexedPsn == shard.indexer.indexedPsn + 1)
    model.foreach { case ((dev, msg), v) =>
      assert(revived.lookup(dev, msg).get.includedValues(0) == v, s"key ($dev,$msg)")
    }
    assertSnapshotMatchesOracle(revived)

    val sidecars = Seq(revived.groomedDir, revived.postGroomer.postDir).flatMap(dir =>
      Files.list(dir).iterator().asScala.filter(_.getFileName.toString.endsWith(ShardFiles.MetaSuffix)))
    assert(sidecars.nonEmpty)
    sidecars.foreach { f =>
      val text = new String(Files.readAllBytes(f), "UTF-8")
      assert(!text.contains(root.toString) && !text.contains(moved.toString), s"$f names a path")
    }
  }
}
