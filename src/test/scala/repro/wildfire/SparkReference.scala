package repro.wildfire

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core._
import scala.jdk.CollectionConverters._

/** The groom write and post-groom as DataFrame jobs: the reference that
  * [[Groomer]] and [[PostGroomer]] must reproduce file for file. Both write
  * the shard layout of [[Shard]], so a shard's own indexer can evolve the
  * reference's output.
  */
object SparkReference {

  /** Write `df` as a single Parquet file at `target` (atomic move from a
    * temporary Spark output directory).
    */
  def writeSingleFile(df: DataFrame, target: Path): Unit = {
    val tmpDir = Files.createTempDirectory(target.getParent, ".spark-out")
    try {
      df.coalesce(1).write.mode("overwrite").parquet(tmpDir.toString)
      val part = Files.list(tmpDir).iterator().asScala
        .find(p => p.getFileName.toString.startsWith("part-") &&
          p.getFileName.toString.endsWith(".parquet"))
        .getOrElse(throw new IllegalStateException(s"no part file in $tmpDir"))
      Files.move(part, target, java.nio.file.StandardCopyOption.REPLACE_EXISTING)
    } finally Fixtures.deleteTree(tmpDir)
  }

  /** [[Groomer.groom]] with its block written by a Spark job. */
  def groom(spark: SparkSession, groomer: Groomer, groomedDir: Path, index: UmziIndex,
      upserts: Array[Upsert], groomSeq: Long): Option[BlockMeta] = {
    val blockId = groomSeq
    if (upserts.isEmpty) return None
    import spark.implicits._
    val rows = upserts.sortBy(_.commitSeq).zipWithIndex.map { case (u, off) =>
      (u.deviceId, u.msgNum, u.value, groomer.beginTsOf(groomSeq, u.commitSeq), off.toLong)
    }
    val df: DataFrame = rows.toSeq
      .toDF("deviceId", "msgNum", "value", "beginTS", "offset")
    val file = ShardFiles.blockFile(groomedDir, blockId)
    writeSingleFile(df.sort($"offset"), file)
    val meta = BlockMeta(
      zone = ZoneId.Groomed.name,
      blockId = blockId,
      file = file.toString,
      count = rows.length,
      minDevice = rows.iterator.map(_._1).min,
      maxDevice = rows.iterator.map(_._1).max,
      minMsg = rows.iterator.map(_._2).min,
      maxMsg = rows.iterator.map(_._2).max)
    meta.write(groomedDir)
    val entries = rows.map { case (device, msg, value, ts, off) =>
      IndexEntry(Array(device), Array(msg), ts,
        Rid(ZoneId.Groomed, blockId, off.toInt), Array(value))
    }
    index.addGroomedRun(entries, BlockRange(blockId, blockId))
    Some(meta)
  }

  /** [[PostGroomer.postGroom]] as DataFrame jobs: distinct keys, a grouped
    * minimum, window functions for versions, endTS and prevRID, joins for
    * block IDs and replaced RIDs, and one filtered write per block.
    */
  def postGroom(spark: SparkSession, sharedRoot: Path, index: UmziIndex,
      targetBlocksPerPostGroom: Int = 4): Option[PostGroomResult] = {
    val view = new PublishedView(sharedRoot)
    val groomedMetas = view.groomed
    if (groomedMetas.isEmpty) return None
    import spark.implicits._
    val postDir = ShardFiles.zoneDir(sharedRoot, ZoneId.PostGroomed)
    Files.createDirectories(postDir)
    Files.createDirectories(ShardFiles.endtsDir(sharedRoot))
    val psn = view.maxPsn + 1
    val nextBlockId = view.nextBlockId
    val newCoveredLo = groomedMetas.map(_.blockId).min
    val newCoveredHi = groomedMetas.map(_.blockId).max

    val raw: DataFrame = groomedMetas.map { m =>
      spark.read.parquet(m.file)
        .select($"deviceId", $"msgNum", $"value", $"beginTS")
    }.reduce(_ unionByName _)

    val pks = raw.select($"deviceId", $"msgNum").distinct().as[(Long, Long)].collect()
    val lookedUp = QueryExec.batchLookupIn(
      index.postGroomedList.snapshot, index.config.defn,
      pks.map { case (d, m) => (Array(d), Array(m)) },
      Long.MaxValue, index.newReadContext())
    val replaced: Seq[((Long, Long), IndexEntry)] =
      pks.zip(lookedUp).collect { case (pk, Some(e)) => (pk, e) }.toSeq

    if (replaced.nonEmpty) {
      val firstNewTs = raw.groupBy($"deviceId", $"msgNum")
        .agg(min($"beginTS") as "firstTs")
        .as[(Long, Long, Long)].collect()
        .map { case (d, m, ts) => (d, m) -> ts }.toMap
      val deltaRows = replaced.map { case (pk, e) =>
        (e.rid.blockId, e.rid.offset.toLong, firstNewTs(pk))
      }
      writeSingleFile(
        deltaRows.toDF("blockId", "offset", "endTS"),
        ShardFiles.endTsDeltaFile(sharedRoot, psn))
    }

    val prevFromIndex = replaced.map { case ((d, m), e) =>
      (d, m, e.rid.zone.code.toLong, e.rid.blockId, e.rid.offset.toLong)
    }.toDF("deviceId", "msgNum", "pZone", "pBlock", "pOffset")

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
        val file = ShardFiles.blockFile(postDir, bid)
        writeSingleFile(blockDf.drop("partKey", "blockId"), file)
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
        meta.write(postDir)
        meta
      }
      PostGroomer.writeState(sharedRoot, psn, newCoveredHi, nextBlockId + partKeys.length)
      Some(PostGroomResult(psn, BlockRange(newCoveredLo, newCoveredHi), metas.toSeq))
    } finally {
      withPrev.unpersist()
    }
  }
}
