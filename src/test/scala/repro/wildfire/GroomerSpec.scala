package repro.wildfire

import java.nio.file.{Files, Path}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.CompressionCodecName
import org.apache.parquet.io.LocalInputFile
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName
import org.apache.parquet.schema.Type.Repetition
import repro.core.Fixtures.TempDirs
import repro.SparkSpec
import repro.core._
import repro.dsv2.{UmziScan, UmziInputPartition, UmziSnapshot}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Groom operation: live zone -> groomed blocks + level-0 index runs
  * (paper §2.1, §5.2).
  */
class GroomerSpec extends SparkSpec with TempDirs {

  private def newShard(): Shard =
    new Shard(spark, tempDir("umzi-groomer"))

  private def batch(n: Int, dev: Long = 1, msgBase: Long = 0): Seq[Upsert] =
    (0 until n).map(i => Upsert(dev, msgBase + i, 1000 + i, i))

  test("groom writes one parquet block with a sidecar meta") {
    val shard = newShard()
    shard.ingest(batch(20))
    val meta = shard.groomOnce().get
    assert(meta.zone == "groomed" && meta.blockId == 0 && meta.count == 20)
    assert(meta.minDevice == 1 && meta.maxDevice == 1)
    assert(meta.minMsg == 0 && meta.maxMsg == 19)
    val df = spark.read.parquet(meta.file)
    assert(df.count() == 20)
    assert(df.columns.toSet == Set("deviceId", "msgNum", "value", "beginTS", "offset"))
  }

  test("groom on an empty live zone is a no-op") {
    val shard = newShard()
    assert(shard.groomOnce().isEmpty)
    assert(BlockMeta.listIn(shard.groomedDir).isEmpty)
  }

  test("beginTS is monotonic within and across groom cycles (paper §2.1)") {
    val shard = newShard()
    shard.ingest(batch(10))
    val m0 = shard.groomOnce().get
    shard.ingest(batch(10, msgBase = 100))
    val m1 = shard.groomOnce().get
    import spark.implicits._
    val ts0 = spark.read.parquet(m0.file).sort($"offset").select($"beginTS").as[Long].collect()
    val ts1 = spark.read.parquet(m1.file).sort($"offset").select($"beginTS").as[Long].collect()
    assert(ts0.toSeq == ts0.sorted.toSeq, "commit order within a groom")
    assert(ts1.head > ts0.last, "groom sequence dominates beginTS")
  }

  test("groomed block IDs increase monotonically") {
    val shard = newShard()
    (0 until 3).foreach { i =>
      shard.ingest(batch(5, msgBase = i * 100))
      assert(shard.groomOnce().get.blockId == i)
    }
  }

  test("grooming builds a queryable level-0 index run") {
    val shard = newShard()
    shard.ingest(batch(25, dev = 3))
    shard.groomOnce()
    assert(shard.index.groomedList.size == 1)
    val run = shard.index.groomedList.snapshot.head
    assert(run.level == 0 && run.count == 25 && run.zone == ZoneId.Groomed)
    val hit = shard.lookup(3, 10)
    assert(hit.isDefined)
    assert(hit.get.includedValues(0) == 1010)
    assert(hit.get.rid.zone == ZoneId.Groomed)
  }

  test("RIDs point at the exact parquet row") {
    val shard = newShard()
    shard.ingest(Seq(Upsert(7, 5, 100, 0), Upsert(7, 3, 200, 1), Upsert(7, 9, 300, 2)))
    val meta = shard.groomOnce().get
    import spark.implicits._
    val rows = spark.read.parquet(meta.file)
      .select($"msgNum", $"value", $"offset").as[(Long, Long, Long)]
      .collect().map(r => r._3 -> (r._1, r._2)).toMap
    Seq((5L, 100L), (3L, 200L), (9L, 300L)).foreach { case (msg, v) =>
      val e = shard.lookup(7, msg).get
      assert(e.rid.blockId == meta.blockId)
      assert(rows(e.rid.offset.toLong) == ((msg, v)), s"msg $msg")
    }
  }

  test("conflicting upserts to the same key resolve by commit order (last writer wins)") {
    val shard = newShard()
    shard.ingest(Seq(Upsert(1, 1, 111, 0), Upsert(1, 1, 222, 1), Upsert(1, 1, 333, 2)))
    shard.groomOnce()
    assert(shard.lookup(1, 1).get.includedValues(0) == 333)
  }

  test("index run synopsis matches block meta") {
    val shard = newShard()
    shard.ingest(Seq(Upsert(2, 10, 0, 0), Upsert(5, 40, 0, 1), Upsert(3, 20, 0, 2)))
    val meta = shard.groomOnce().get
    val run = shard.index.groomedList.snapshot.head
    assert(run.synopsis.mins(0) == meta.minDevice && run.synopsis.maxs(0) == meta.maxDevice)
    assert(run.synopsis.mins(1) == meta.minMsg && run.synopsis.maxs(1) == meta.maxMsg)
  }

  // ------------------------------------------------ ParquetIo.writeLongRows

  test("a written block reads back identically through parquet-mr and Spark") {
    val dir = tempDir("umzi-writer")
    val cols = Seq("b", "a", "c")
    val rng = new Random(7)
    val rows = Array.fill(3000)(Array(rng.nextLong(), Long.MinValue + rng.nextInt(3), Long.MaxValue - rng.nextInt(3)))
    val file = dir.resolve("block-0.parquet")
    ParquetIo.writeLongRows(file, cols, rows)
    assert(ParquetIo.readLongRows(file.toString, cols: _*).map(_.toSeq).toSeq == rows.map(_.toSeq).toSeq)
    val df = spark.read.parquet(file.toString)
    assert(df.columns.toSeq == cols)
    assert(df.collect().map(r => Seq(r.getLong(0), r.getLong(1), r.getLong(2))).toSeq == rows.map(_.toSeq).toSeq)
    assert(ParquetIo.readLongRows(file.toString, "c", "b").map(_.toSeq).toSeq ==
      rows.map(r => Seq(r(2), r(0))).toSeq, "projection follows the requested order")
  }

  test("block footers record SNAPPY and required INT64 columns in order") {
    val shard = newShard()
    shard.ingest((0 until 40).map(i => Upsert(i % 3, i * 7, i, i)))
    val groomed = shard.groomOnce().get
    val post = shard.postGroomOnce().get.blocks
    (groomed.file, Groomer.Columns) +: post.map(b => (b.file, PostGroomer.Columns)) foreach { case (file, cols) =>
      val reader = ParquetFileReader.open(new LocalInputFile(Path.of(file)))
      try {
        val fields = reader.getFooter.getFileMetaData.getSchema.getFields.asScala.toSeq
        assert(fields.map(_.getName) == cols, file)
        fields.foreach { f =>
          assert(f.isPrimitive && f.asPrimitiveType.getPrimitiveTypeName == PrimitiveTypeName.INT64, f)
          assert(f.getRepetition == Repetition.REQUIRED, f)
        }
        val chunks = reader.getFooter.getBlocks.asScala.flatMap(_.getColumns.asScala)
        assert(chunks.nonEmpty && chunks.forall(_.getCodec == CompressionCodecName.SNAPPY), file)
      } finally reader.close()
    }
  }

  test("a failed write leaves neither the block nor a temporary file") {
    val dir = tempDir("umzi-writer")
    intercept[IllegalArgumentException] {
      ParquetIo.writeLongRows(dir.resolve("block-0.parquet"), Seq("a", "b"), Array(Array(1L, 2L), Array(3L)))
    }
    assert(Files.list(dir).count() == 0)
  }

  test("a temporary file left by a crashed write is ignored by listings, scans and restarts") {
    val root = tempDir("umzi-groomer")
    val shard = new Shard(spark, root)
    (0 until 3).foreach { c =>
      shard.ingest((0 until 30).map(i => Upsert(1, c * 10 + i % 12, c * 100 + i, i)))
      shard.groomOnce()
      if (c < 2) { shard.postGroomOnce(); shard.indexerPoll() }
    }
    val endts = shard.postGroomer.endtsDir
    assert(Files.list(endts).count() == 1, "the second post-groom replaced earlier versions")
    def plannedFiles(): Seq[String] =
      new UmziScan(shard.sharedRoot, Long.MaxValue, Array.empty).planInputPartitions()
        .map(_.asInstanceOf[UmziInputPartition]).map(p => s"${p.file}:${p.endTsDelta.length}").toSeq.sorted
    def snapshot(): Seq[String] =
      UmziSnapshot.raw(spark, shard.sharedRoot.toString).collect().map(_.toString).toSeq.sorted
    val groomedBefore = BlockMeta.listIn(shard.groomedDir)
    val postBefore = BlockMeta.listIn(shard.postGroomer.postDir)
    val (planBefore, rowsBefore) = (plannedFiles(), snapshot())

    // torn copies under the writer's temporary names, one per zone directory
    Seq(groomedBefore.last.file, postBefore.head.file, Files.list(endts).iterator().next().toString)
      .foreach { f =>
        val src = Path.of(f)
        val bytes = Files.readAllBytes(src)
        Files.write(Files.createTempFile(src.getParent, s".${src.getFileName}.", ".tmp"),
          bytes.take(bytes.length / 2))
      }
    assert(BlockMeta.listIn(shard.groomedDir) == groomedBefore)
    assert(BlockMeta.listIn(shard.postGroomer.postDir) == postBefore)
    assert(plannedFiles() == planBefore)
    assert(snapshot() == rowsBefore)

    val restarted = new Shard(spark, root)
    restarted.recoverIndex()
    assert(restarted.lookup(1, 21) == shard.lookup(1, 21))
    restarted.ingest(Seq(Upsert(1, 21, 4242, 0)))
    assert(restarted.groomOnce().get.blockId == groomedBefore.last.blockId + 1)
    assert(restarted.postGroomOnce().get.psn == 2)
    assert(restarted.lookup(1, 21).get.includedValues(0) == 4242)
  }
}
