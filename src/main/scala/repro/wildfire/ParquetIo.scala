package repro.wildfire

import java.nio.file.{Path, Paths}
import org.apache.hadoop.conf.Configuration
import org.apache.parquet.conf.HadoopParquetConfiguration
import org.apache.parquet.example.data.Group
import org.apache.parquet.example.data.simple.SimpleGroupFactory
import org.apache.parquet.hadoop.{ParquetFileWriter, ParquetReader}
import org.apache.parquet.hadoop.api.{InitContext, ReadSupport}
import org.apache.parquet.hadoop.example.{ExampleParquetWriter, GroupReadSupport}
import org.apache.parquet.hadoop.metadata.CompressionCodecName
import org.apache.parquet.io.{LocalInputFile, LocalOutputFile}
import org.apache.parquet.schema.{MessageType, PrimitiveType, Type, Types}
import repro.storage.SharedStorage
import scala.jdk.CollectionConverters._

/** Reads and writes one logical zone block as exactly one Parquet file.
  *
  * Wildfire prefers a small number of large files on shared storage (paper
  * §1); each groomed / post-groomed block is a single Parquet file with its
  * [[BlockMeta]] sidecar next to it. Both directions run in process with
  * parquet-mr, without a Spark job.
  */
object ParquetIo {

  // Shared so that opening a block does not parse the Hadoop defaults again
  // (a fresh Configuration costs more than reading a small block).
  private lazy val conf = new HadoopParquetConfiguration(new Configuration())

  /** Write `rows` as the single Parquet file `target`: one `required int64`
    * column per name in `cols`, in that order, row `r` holding `rows(r)`;
    * SNAPPY-compressed, as Spark writes. Written with
    * [[SharedStorage.writeAtomically]], so a crash never leaves a torn file
    * under a block name.
    */
  def writeLongRows(target: Path, cols: Seq[String], rows: Array[Array[Long]]): Unit = {
    val schema = new MessageType("block",
      cols.map(c => Types.required(PrimitiveType.PrimitiveTypeName.INT64).named(c): Type).asJava)
    SharedStorage.writeAtomically(target) { tmp =>
      val writer = ExampleParquetWriter.builder(new LocalOutputFile(tmp))
        .withConf(conf)
        .withType(schema)
        .withCompressionCodec(CompressionCodecName.SNAPPY)
        .withWriteMode(ParquetFileWriter.Mode.OVERWRITE)
        .build()
      try {
        val groups = new SimpleGroupFactory(schema)
        rows.foreach { r =>
          require(r.length == cols.length, s"row of ${r.length} values for ${cols.length} columns")
          val g = groups.newGroup()
          var c = 0
          while (c < r.length) { g.add(c, r(c)); c += 1 }
          writer.write(g)
        }
      } finally writer.close()
    }
  }

  /** The long columns `cols` of every row of the block file `file`, in file
    * order: row `r` is `Array(cols(0)-value, cols(1)-value, ...)`.
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
