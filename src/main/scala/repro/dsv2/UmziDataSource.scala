package repro.dsv2

import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.atomic.LongAdder
import java.util.{Map => JMap}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.wildfire.{BlockMeta, ParquetIo, PublishedView, ShardFiles}

/** DataSourceV2 provider `umzi`: a unified, consistent scan over the
  * multi-zone shard layout (repro hint: "custom DataSource V2 index layer
  * over partitioned columnar zones, using DataFrame scans with data skipping
  * across zones").
  *
  * The scan presents ONE table regardless of which zone a record currently
  * lives in, applying the paper's consistency rule (§5.4): groomed blocks
  * whose ID is <= the published covered-groomed watermark are ignored —
  * their records have evolved into post-groomed blocks — so no record is
  * ever missed or duplicated across zones. Per-block key min/max sidecars
  * provide synopsis-style data skipping against pushed-down filters, and a
  * `queryTS` option gives snapshot/time-travel reads (beginTS <= ts < endTS,
  * with append-only endTS deltas applied at read time).
  *
  * Options: `path` (shard shared root), `queryTS` (default: latest).
  */
class UmziDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "umzi"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    UmziDataSource.Schema

  override def getTable(
      schema: StructType,
      partitioning: Array[Transform],
      properties: JMap[String, String]): Table = {
    val path = Option(properties.get("path"))
      .getOrElse(throw new IllegalArgumentException("umzi source requires option 'path'"))
    val queryTS = Option(properties.get("queryts")).orElse(Option(properties.get("queryTS")))
      .map(_.toLong).getOrElse(Long.MaxValue)
    new UmziTable(Paths.get(path), queryTS)
  }
}

object UmziDataSource {
  val Schema: StructType = StructType(Seq(
    StructField("deviceId", LongType, nullable = false),
    StructField("msgNum", LongType, nullable = false),
    StructField("value", LongType, nullable = false),
    StructField("beginTS", LongType, nullable = false)))

  /** Scan-planning metrics, observable from tests: how many zone blocks the
    * last scans considered vs skipped via sidecar synopses.
    */
  val blocksPlanned = new LongAdder
  val blocksSkipped = new LongAdder
}

final class UmziTable(root: Path, queryTS: Long) extends Table with SupportsRead {
  override def name(): String = s"umzi:$root@$queryTS"
  override def schema(): StructType = UmziDataSource.Schema
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new UmziScanBuilder(root, queryTS)
}

/** Pushes equality/range predicates on the key columns into block skipping.
  * All filters are also returned as residual so Spark re-evaluates them —
  * skipping is an optimization, never a correctness dependency.
  */
final class UmziScanBuilder(root: Path, queryTS: Long)
    extends ScanBuilder with SupportsPushDownFilters {

  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    pushed = filters.filter(UmziScanBuilder.isSupported)
    filters // everything stays residual
  }

  override def pushedFilters(): Array[Filter] = pushed

  override def build(): Scan = new UmziScan(root, queryTS, pushed)
}

object UmziScanBuilder {
  def isSupported(f: Filter): Boolean = f match {
    case EqualTo(a, _: java.lang.Long) => a == "deviceId" || a == "msgNum"
    case EqualTo(a, _: java.lang.Integer) => a == "deviceId" || a == "msgNum"
    case GreaterThan(a, _) => a == "msgNum" || a == "deviceId"
    case GreaterThanOrEqual(a, _) => a == "msgNum" || a == "deviceId"
    case LessThan(a, _) => a == "msgNum" || a == "deviceId"
    case LessThanOrEqual(a, _) => a == "msgNum" || a == "deviceId"
    case _ => false
  }

  /** Derive [lo, hi] bounds per column from the pushed filters. */
  def boundsOf(filters: Array[Filter], col: String): (Long, Long) = {
    var lo = Long.MinValue
    var hi = Long.MaxValue
    def num(v: Any): Long = v match {
      case l: java.lang.Long => l
      case i: java.lang.Integer => i.toLong
      case other => other.toString.toLong
    }
    filters.foreach {
      case EqualTo(a, v) if a == col => lo = math.max(lo, num(v)); hi = math.min(hi, num(v))
      case GreaterThan(a, v) if a == col => lo = math.max(lo, num(v) + 1)
      case GreaterThanOrEqual(a, v) if a == col => lo = math.max(lo, num(v))
      case LessThan(a, v) if a == col => hi = math.min(hi, num(v) - 1)
      case LessThanOrEqual(a, v) if a == col => hi = math.min(hi, num(v))
      case _ =>
    }
    (lo, hi)
  }
}

/** One InputPartition per surviving zone block. `endTsDelta` carries the
  * append-only endTS updates targeting this block (paper's post-groomer sets
  * endTS on replaced records; shared storage forbids in-place writes, so
  * they live in delta files merged here at read time).
  */
final case class UmziInputPartition(
    file: String,
    blockId: Long,
    isPostGroomed: Boolean,
    endTsDelta: Array[(Long, Long)]) extends InputPartition

final class UmziScan(root: Path, queryTS: Long, filters: Array[Filter])
    extends Scan with Batch {

  override def readSchema(): StructType = UmziDataSource.Schema
  override def toBatch: Batch = this
  override def description(): String =
    s"umzi unified multi-zone scan (queryTS=$queryTS, pushed=${filters.mkString(",")})"

  override def planInputPartitions(): Array[InputPartition] = {
    // Consistency rule across zones (paper §5.4): read only the published
    // view, never covered groomed blocks or unpublished post-groomed ones.
    val view = new PublishedView(root)

    val (devLo, devHi) = UmziScanBuilder.boundsOf(filters, "deviceId")
    val (msgLo, msgHi) = UmziScanBuilder.boundsOf(filters, "msgNum")
    def survives(m: BlockMeta): Boolean =
      !(m.maxDevice < devLo || m.minDevice > devHi || m.maxMsg < msgLo || m.minMsg > msgHi)

    val all = view.groomed.map(m => (m, false)) ++ view.postGroomed.map(m => (m, true))
    val kept = all.filter { case (m, _) => survives(m) }
    UmziDataSource.blocksPlanned.add(kept.size)
    UmziDataSource.blocksSkipped.add(all.size - kept.size)

    val deltas: Map[Long, Array[(Long, Long)]] = loadEndTsDeltas(view.maxPsn)
    kept.map { case (m, isPost) =>
      UmziInputPartition(m.file, m.blockId, isPost,
        if (isPost) deltas.getOrElse(m.blockId, Array.empty) else Array.empty)
        : InputPartition
    }.toArray
  }

  /** blockId -> [(offset, endTS)], read from the append-only delta files of
    * the published PSNs 0..maxPsn (a PSN that replaced nothing has none).
    */
  private def loadEndTsDeltas(maxPsn: Long): Map[Long, Array[(Long, Long)]] =
    (0L to maxPsn).map(ShardFiles.endTsDeltaFile(root, _)).filter(Files.exists(_))
      .flatMap(f => ParquetIo.readLongRows(f.toString, "blockId", "offset", "endTS"))
      .groupBy(_(0))
      .map { case (bid, rs) => bid -> rs.map(r => (r(1), r(2))).toArray }

  override def createReaderFactory(): PartitionReaderFactory = new UmziReaderFactory(queryTS)
}

/** Reads one Parquet zone block with [[ParquetIo.readLongRows]] and applies
  * the snapshot predicate beginTS <= queryTS < effective endTS, where the
  * effective endTS of a post-groomed row is its delta entry if it has one,
  * else its block column; groomed rows have no endTS yet (paper §2.1).
  */
final class UmziReaderFactory(queryTS: Long) extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val p = partition.asInstanceOf[UmziInputPartition]
    // open versions carry endTS == Long.MaxValue (visible at any ts)
    def visible(beginTS: Long, endTS: Long): Boolean =
      beginTS <= queryTS && (endTS == Long.MaxValue || queryTS < endTS)
    val rows: Iterator[Array[Long]] =
      if (p.isPostGroomed) {
        val delta = p.endTsDelta.toMap
        ParquetIo.readLongRows(p.file, "deviceId", "msgNum", "value", "beginTS", "endTS", "offset")
          .iterator.filter(r => visible(r(3), delta.getOrElse(r(5), r(4))))
      } else {
        ParquetIo.readLongRows(p.file, "deviceId", "msgNum", "value", "beginTS")
          .iterator.filter(r => visible(r(3), Long.MaxValue))
      }
    new PartitionReader[InternalRow] {
      private var current: InternalRow = _
      override def next(): Boolean = rows.hasNext && {
        val r = rows.next()
        current = InternalRow(r(0), r(1), r(2), r(3))
        true
      }
      override def get(): InternalRow = current
      override def close(): Unit = ()
    }
  }
}
