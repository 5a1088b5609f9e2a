package repro.wildfire

import java.nio.file.{Files, Path}
import java.util.Properties
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core._
import scala.jdk.CollectionConverters._

/** Result of one post-groom operation (paper §2.1, §5.4). */
final case class PostGroomResult(
    psn: Long,
    coveredRange: BlockRange,
    blocks: Seq[BlockMeta])

/** The post-groomer (paper §2.1): periodically evolves newly groomed blocks
  * into the analytics-friendly post-groomed zone.
  *
  * For each post-groom operation (identified by a post-groom sequence
  * number, PSN) it:
  *  1. collects, via the *post-groomed portion of the index*, the RIDs of
  *     already post-groomed records that the new records replace;
  *  2. sets `prevRID` on the new records (chaining versions) and `endTS` on
  *     the replaced records — the latter as an append-only delta file, since
  *     shared storage does not support in-place updates (DESIGN.md §2);
  *  3. re-organizes the records by the OLAP-friendly partition key
  *     (`msgNum` ranges) into fewer, larger Parquet blocks;
  *  4. publishes the PSN metadata and bumps MaxPSN for the indexer to poll.
  */
final class PostGroomer(
    spark: SparkSession,
    sharedRoot: Path,
    index: UmziIndex,
    targetBlocksPerPostGroom: Int = 4) {

  val postDir: Path = sharedRoot.resolve("postgroomed")
  val endtsDir: Path = sharedRoot.resolve("endts")
  Files.createDirectories(postDir)
  Files.createDirectories(endtsDir)

  /** (maxPsn, coveredGroomedHi, nextPostBlockId) published on shared storage. */
  def readState(): (Long, Long, Long) = PostGroomer.readState(sharedRoot)

  private def writeState(maxPsn: Long, coveredHi: Long, nextBlockId: Long): Unit = {
    val p = new Properties()
    p.setProperty("maxPsn", maxPsn.toString)
    p.setProperty("coveredHi", coveredHi.toString)
    p.setProperty("nextBlockId", nextBlockId.toString)
    val tmp = Files.createTempFile(sharedRoot, "state", ".tmp")
    val out = Files.newOutputStream(tmp)
    try p.store(out, "postgroom state")
    finally out.close()
    Files.move(tmp, PostGroomer.stateFile(sharedRoot), java.nio.file.StandardCopyOption.ATOMIC_MOVE,
      java.nio.file.StandardCopyOption.REPLACE_EXISTING)
  }

  /** Post-groom all groomed blocks in `groomedMetas` (must be the contiguous
    * not-yet-covered range). Returns None when there is nothing to do.
    */
  def postGroom(groomedMetas: Seq[BlockMeta]): Option[PostGroomResult] = {
    if (groomedMetas.isEmpty) return None
    import spark.implicits._
    val (maxPsn, coveredHi, nextBlockId) = readState()
    val psn = maxPsn + 1
    val newCoveredLo = groomedMetas.map(_.blockId).min
    val newCoveredHi = groomedMetas.map(_.blockId).max
    require(newCoveredLo > coveredHi, s"groomed blocks $newCoveredLo..$newCoveredHi already covered")

    // Scan the newly groomed blocks.
    val raw: DataFrame = groomedMetas.map { m =>
      spark.read.parquet(m.file)
        .select($"deviceId", $"msgNum", $"value", $"beginTS")
    }.reduce(_ unionByName _)

    // 1. Use the post-groomed portion of the index to find the most recent
    //    already-post-groomed version of each incoming primary key.
    val pks = raw.select($"deviceId", $"msgNum").distinct().as[(Long, Long)].collect()
    val defn = index.config.defn
    val ctx = index.newReadContext()
    val lookedUp = QueryExec.batchLookupIn(
      index.postGroomedList.snapshot, defn,
      pks.map { case (d, m) => (Array(d), Array(m)) },
      Long.MaxValue, ctx)
    val replaced: Seq[((Long, Long), IndexEntry)] =
      pks.zip(lookedUp).collect { case (pk, Some(e)) => (pk, e) }.toSeq

    // 2a. endTS delta for the replaced post-groomed records: endTS is the
    //     earliest new beginTS of the same key.
    if (replaced.nonEmpty) {
      val firstNewTs = raw.groupBy($"deviceId", $"msgNum")
        .agg(min($"beginTS") as "firstTs")
        .as[(Long, Long, Long)].collect()
        .map { case (d, m, ts) => (d, m) -> ts }.toMap
      val deltaRows = replaced.map { case (pk, e) =>
        (e.rid.blockId, e.rid.offset.toLong, firstNewTs(pk))
      }
      ParquetIo.writeSingleFile(
        deltaRows.toDF("blockId", "offset", "endTS"),
        endtsDir.resolve(s"psn-$psn.parquet"))
    }

    // 2b. prevRID for the oldest new version of each key comes from the
    //     index lookup; newer versions chain within the batch.
    val prevFromIndex = replaced.map { case ((d, m), e) =>
      (d, m, e.rid.zone.code.toLong, e.rid.blockId, e.rid.offset.toLong)
    }.toDF("deviceId", "msgNum", "pZone", "pBlock", "pOffset")

    // 3. Re-organize by the partition key: contiguous msgNum ranges sized to
    //    produce `targetBlocksPerPostGroom` larger blocks.
    val msgBounds = raw.agg(min($"msgNum"), max($"msgNum")).as[(Long, Long)].head()
    val width = math.max(1L, (msgBounds._2 - msgBounds._1 + 1) / targetBlocksPerPostGroom)
    val pkWin = Window.partitionBy($"deviceId", $"msgNum").orderBy($"beginTS")
    val withPart = raw
      .withColumn("partKey", floor(($"msgNum" - lit(msgBounds._1)) / lit(width)))
      .withColumn("verRank", row_number().over(pkWin))
      .withColumn("endTS",
        coalesce(lead($"beginTS", 1).over(pkWin), lit(Long.MaxValue)))

    val partKeys = withPart.select($"partKey").distinct().as[Long].collect().sorted
    val blockIdOf = partKeys.zipWithIndex.map { case (pk, i) => pk -> (nextBlockId + i) }.toMap
    val bidDf = blockIdOf.toSeq.toDF("partKey", "blockId")

    val offWin = Window.partitionBy($"blockId").orderBy($"deviceId", $"msgNum", $"beginTS")
    val located = withPart
      .join(bidDf, "partKey")
      .withColumn("offset", row_number().over(offWin).cast("long") - 1)

    // chain prevRID: version 1 of a key points at the replaced post-groomed
    // record (if any); version k > 1 points at version k-1 in this batch.
    val chainWin = Window.partitionBy($"deviceId", $"msgNum").orderBy($"beginTS")
    val withPrev = located
      .join(prevFromIndex, Seq("deviceId", "msgNum"), "left")
      .withColumn("prevZone",
        when($"verRank" === 1, coalesce($"pZone", lit(-1L)))
          .otherwise(lit(ZoneId.PostGroomed.code.toLong)))
      .withColumn("prevBlock",
        when($"verRank" === 1, coalesce($"pBlock", lit(-1L)))
          .otherwise(lag($"blockId", 1).over(chainWin)))
      .withColumn("prevOffset",
        when($"verRank" === 1, coalesce($"pOffset", lit(-1L)))
          .otherwise(lag($"offset", 1).over(chainWin)))
      .select($"deviceId", $"msgNum", $"value", $"beginTS", $"endTS",
        $"prevZone", $"prevBlock", $"prevOffset", $"partKey", $"blockId", $"offset")
      .cache()

    try {
      val metas = partKeys.map { pk =>
        val bid = blockIdOf(pk)
        val blockDf = withPrev.filter($"blockId" === bid).sort($"offset")
        val file = postDir.resolve(s"block-$bid.parquet")
        ParquetIo.writeSingleFile(blockDf.drop("partKey", "blockId"), file)
        val stats = blockDf.agg(
          count(lit(1)), min($"deviceId"), max($"deviceId"), min($"msgNum"), max($"msgNum")
        ).as[(Long, Long, Long, Long, Long)].head()
        val meta = BlockMeta(
          zone = ZoneId.PostGroomed.name,
          blockId = bid,
          file = file.toString,
          count = stats._1,
          minDevice = stats._2, maxDevice = stats._3,
          minMsg = stats._4, maxMsg = stats._5,
          coveredLo = newCoveredLo, coveredHi = newCoveredHi,
          psn = psn)
        meta.write(postDir.resolve(s"block-$bid.blockmeta"))
        meta
      }

      // 4. Publish: the indexer polls MaxPSN and evolves the index (Fig 5).
      writeState(psn, newCoveredHi, nextBlockId + partKeys.length)
      Some(PostGroomResult(psn, BlockRange(newCoveredLo, newCoveredHi), metas.toSeq))
    } finally {
      withPrev.unpersist()
    }
  }

  /** Mark groomed blocks as deprecated after they are covered; Wildfire
    * eventually deletes them to reclaim space (paper §5.4).
    */
  def deprecateGroomedBlocks(groomedDir: Path, coveredHi: Long): Unit =
    BlockMeta.listIn(groomedDir)
      .filter(_.blockId <= coveredHi)
      .foreach { m =>
        Files.deleteIfExists(Path.of(m.file))
        Files.deleteIfExists(groomedDir.resolve(s"block-${m.blockId}.blockmeta"))
      }
}

object PostGroomer {

  private def stateFile(sharedRoot: Path): Path = sharedRoot.resolve("postgroom-state")

  /** (maxPsn, coveredGroomedHi, nextPostBlockId) published under `sharedRoot`;
    * the one parser of the state file, shared by every reader of the shard.
    */
  def readState(sharedRoot: Path): (Long, Long, Long) = {
    val file = stateFile(sharedRoot)
    if (Files.exists(file)) {
      val p = new Properties()
      val in = Files.newInputStream(file)
      try p.load(in)
      finally in.close()
      (p.getProperty("maxPsn").toLong, p.getProperty("coveredHi").toLong,
        p.getProperty("nextBlockId").toLong)
    } else (-1L, -1L, 1_000_000L)
  }
}
