package repro.wildfire

import java.nio.file.{Files, Path, Paths}
import org.apache.hadoop.conf.Configuration
import org.apache.parquet.conf.HadoopParquetConfiguration
import org.apache.parquet.example.data.Group
import org.apache.parquet.hadoop.ParquetReader
import org.apache.parquet.hadoop.api.{InitContext, ReadSupport}
import org.apache.parquet.hadoop.example.GroupReadSupport
import org.apache.parquet.io.LocalInputFile
import org.apache.parquet.schema.{MessageType, Type}
import org.apache.spark.sql.DataFrame
import scala.jdk.CollectionConverters._

/** Reads and writes one logical zone block as exactly one Parquet file.
  *
  * Wildfire prefers a small number of large files on shared storage (paper
  * §1); each groomed / post-groomed block is a single Parquet file whose
  * path is recorded in its [[BlockMeta]] sidecar.
  */
object ParquetIo {

  /** Write `df` as a single Parquet file at `target` (atomic move from a
    * temporary Spark output directory).
    */
  def writeSingleFile(df: DataFrame, target: Path): Unit = {
    val tmpDir = Files.createTempDirectory(target.getParent, ".spark-out")
    // coalesce(1): one block = one file, as Wildfire's groomer produces
    df.coalesce(1).write.mode("overwrite").parquet(tmpDir.toString)
    val part = Files.list(tmpDir).iterator().asScala
      .find(p => p.getFileName.toString.startsWith("part-") &&
        p.getFileName.toString.endsWith(".parquet"))
      .getOrElse(throw new IllegalStateException(s"no part file in $tmpDir"))
    Files.move(part, target, java.nio.file.StandardCopyOption.REPLACE_EXISTING)
    // clean the temporary directory (best-effort)
    Files.walk(tmpDir).iterator().asScala.toSeq.reverse.foreach(p => Files.deleteIfExists(p))
  }

  // Shared so that opening a block does not parse the Hadoop defaults again
  // (a fresh Configuration costs more than reading a small block).
  private lazy val conf = new HadoopParquetConfiguration(new Configuration())

  /** The long columns `cols` of every row of the block file `file`, in file
    * order: row `r` is `Array(cols(0)-value, cols(1)-value, ...)`. Read in
    * process with parquet-mr, without a Spark job.
    */
  def readLongRows(file: String, cols: String*): Array[Array[Long]] = {
    val reader = new ParquetReader.Builder[Group](new LocalInputFile(Paths.get(file)), conf) {
      override def getReadSupport: ReadSupport[Group] = new LongColumns(cols)
    }.build()
    try Iterator.continually(reader.read()).takeWhile(_ != null)
      .map(g => Array.tabulate(cols.length)(g.getLong(_, 0)))
      .toArray
    finally reader.close()
  }

  /** Projects the file schema onto `cols`, in that order. */
  private final class LongColumns(cols: Seq[String]) extends GroupReadSupport {
    override def init(ctx: InitContext): ReadSupport.ReadContext = {
      val schema = ctx.getFileSchema
      val fields: Seq[Type] = cols.map(c => schema.getType(schema.getFieldIndex(c)))
      new ReadSupport.ReadContext(new MessageType(schema.getName, fields.asJava))
    }
  }
}
