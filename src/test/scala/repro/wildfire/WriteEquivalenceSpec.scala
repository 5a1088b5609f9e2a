package repro.wildfire

import java.nio.file.{Files, Path}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.io.LocalInputFile
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.core.Fixtures.TempDirs
import repro.SparkSpec
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import WriteEquivalenceSpec._

/** The in-process groom and post-groom write, row for row, the files the
  * DataFrame reference ([[SparkReference]]) writes: groomed blocks,
  * post-groomed blocks (block IDs, offsets, endTS, prevRID chains), endTS
  * deltas, sidecars and the published state.
  */
class WriteEquivalenceSpec extends SparkSpec with TempDirs {

  private val keysGen: Gen[Keys] =
    Gen.oneOf(Gen.const(Sequential), Gen.const(RandomKeys), Gen.choose(1L, 4L).map(Narrow))
  private val scenarioGen: Gen[Scenario] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    devices <- Gen.choose(1, 4)
    nPsns <- Gen.choose(3, 4)
    psns <- Gen.listOfN(nPsns, Gen.zip(keysGen, Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.choose(1, 30)))))
  } yield Scenario(seed, devices, psns)

  /** Upserts per groom cycle, per post-groom. About a quarter of them update
    * a key written earlier, in this cycle, this post-groom or an earlier one.
    */
  private def upsertsOf(sc: Scenario): Seq[Seq[Array[Upsert]]] = {
    val rng = new Random(sc.seed)
    val written = mutable.ArrayBuffer.empty[(Long, Long)]
    var nextMsg = 0L
    sc.psns.map { case (keys, cycles) =>
      cycles.map { n =>
        Array.tabulate(n) { i =>
          val reusable = keys match {
            case Narrow(span) => written.filter(_._2 < span)
            case _ => written
          }
          val key =
            if (reusable.nonEmpty && rng.nextDouble() < 0.25) reusable(rng.nextInt(reusable.size))
            else {
              val msg = keys match {
                case Sequential => nextMsg += 1; nextMsg
                case RandomKeys => rng.nextLong(1L << 40)
                case Narrow(span) => rng.nextLong(span)
              }
              (rng.nextInt(sc.devices).toLong, msg)
            }
          written += key
          Upsert(key._1, key._2, rng.nextLong(1L << 32), commitSeq = i)
        }
      }
    }
  }

  private def columnsOf(file: String): Seq[String] = {
    val reader = ParquetFileReader.open(new LocalInputFile(Path.of(file)))
    try reader.getFooter.getFileMetaData.getSchema.getFields.asScala.map(_.getName).toSeq
    finally reader.close()
  }

  /** Same column names in the same order, and the same rows in file order. */
  private def assertSameFile(file: String, ref: String): Unit = {
    val cols = columnsOf(ref)
    assert(columnsOf(file) == cols, file)
    assert(ParquetIo.readLongRows(file, cols: _*).map(_.toSeq).toSeq ==
      ParquetIo.readLongRows(ref, cols: _*).map(_.toSeq).toSeq, file)
  }

  /** A sidecar as read back, which must equal what the writer returned,
    * without the block path (the one field the sidecar does not store).
    */
  private def sidecar(dir: Path, m: BlockMeta): BlockMeta = {
    val read = BlockMeta.read(ShardFiles.metaFile(dir, m.blockId))
    assert(read == m)
    read.copy(file = "")
  }

  private def listing(dir: Path): Seq[String] =
    Files.list(dir).iterator().asScala.map(_.getFileName.toString).toSeq.sorted

  /** Blocks per post-groom seen over every scenario checked. */
  private val blocksPerPostGroom = mutable.Set.empty[Int]

  private def runScenario(sc: Scenario): Unit = {
    val shard = new Shard(spark, tempDir("umzi-write-eq"))
    val ref = new Shard(spark, tempDir("umzi-write-ref"))
    var groomSeq = 0L
    upsertsOf(sc).foreach { cycles =>
      cycles.foreach { ups =>
        shard.ingest(ups)
        val m = shard.groomOnce().get
        val r = SparkReference.groom(spark, ref.groomer, ref.groomedDir, ref.index, ups, groomSeq).get
        groomSeq += 1
        assert(sidecar(shard.groomedDir, m) == sidecar(ref.groomedDir, r))
        assertSameFile(m.file, r.file)
      }
      val res = shard.postGroomOnce().get
      val refRes = SparkReference.postGroom(spark, ref.sharedRoot, ref.index).get
      blocksPerPostGroom += res.blocks.size
      assert(res.psn == refRes.psn && res.coveredRange == refRes.coveredRange)
      val postDir = shard.postGroomer.postDir
      val refPostDir = ref.postGroomer.postDir
      assert(res.blocks.map(sidecar(postDir, _)) == refRes.blocks.map(sidecar(refPostDir, _)))
      res.blocks.zip(refRes.blocks).foreach { case (b, rb) => assertSameFile(b.file, rb.file) }
      // Spark's delta row order follows its distinct(), so compare sorted
      val delta = s"psn-${res.psn}.parquet"
      val refDelta = ref.postGroomer.endtsDir.resolve(delta)
      assert(Files.exists(shard.postGroomer.endtsDir.resolve(delta)) == Files.exists(refDelta))
      if (Files.exists(refDelta)) {
        def sortedRows(f: Path) = ParquetIo.readLongRows(f.toString, "blockId", "offset", "endTS")
          .map(_.toSeq).toSeq.sortBy(r => (r(0), r(1)))
        assert(columnsOf(shard.postGroomer.endtsDir.resolve(delta).toString) == columnsOf(refDelta.toString))
        assert(sortedRows(shard.postGroomer.endtsDir.resolve(delta)) == sortedRows(refDelta))
      }
      assert(shard.postGroomer.readState() == PostGroomer.readState(ref.sharedRoot))
      shard.indexerPoll()
      ref.indexerPoll()
    }
    Seq("groomed", "postgroomed", "endts").foreach { zone =>
      assert(listing(shard.sharedRoot.resolve(zone)) == listing(ref.sharedRoot.resolve(zone)), zone)
    }
  }

  test("groom and post-groom write the files of the Spark reference, row for row") {
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4") // fewer tasks per reference job
    try {
      val res = Test.check(
        Test.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(20190326L)),
        Prop.forAllNoShrink(scenarioGen) { sc => runScenario(sc); true })
      assert(res.passed, Pretty.pretty(res))
    } finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
    assert((1 to 4).forall(blocksPerPostGroom), s"partition blocks per post-groom: $blocksPerPostGroom")
  }
}

object WriteEquivalenceSpec {

  /** How one post-groom's msgNums are drawn: a counter, uniformly from 2^40,
    * or from the window [0, span) (span 1..4 gives that many partition
    * blocks when every value occurs).
    */
  sealed trait Keys
  case object Sequential extends Keys
  case object RandomKeys extends Keys
  final case class Narrow(span: Long) extends Keys

  /** Per post-groom: its key mode and the sizes of its groom cycles. */
  final case class Scenario(seed: Long, devices: Int, psns: Seq[(Keys, Seq[Int])])
}
