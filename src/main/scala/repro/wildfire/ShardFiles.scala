package repro.wildfire

import java.nio.file.Path
import repro.core.ZoneId

/** The layout of a shard's zone files under its shared root (a directory
  * per zone of `block-N.parquet` files and their `.blockmeta` sidecars,
  * `endts/psn-N.parquet`, `postgroom-state`); [[PublishedView]] says
  * which of them a reader may see.
  */
object ShardFiles {
  val MetaSuffix: String = ".blockmeta"

  def zoneDir(sharedRoot: Path, zone: ZoneId): Path = sharedRoot.resolve(zone.name)
  def endtsDir(sharedRoot: Path): Path = sharedRoot.resolve("endts")
  def endTsDeltaFile(sharedRoot: Path, psn: Long): Path = endtsDir(sharedRoot).resolve(s"psn-$psn.parquet")
  def stateFile(sharedRoot: Path): Path = sharedRoot.resolve("postgroom-state")
  private def stem(blockId: Long): String = s"block-$blockId"
  def blockFile(dir: Path, blockId: Long): Path = dir.resolve(stem(blockId) + ".parquet")
  def metaFile(dir: Path, blockId: Long): Path = dir.resolve(stem(blockId) + MetaSuffix)

  /** Write block `blockId` of `zone` into `dir` (`rows` under the columns
    * `cols`, which start with deviceId and msgNum), then its sidecar.
    */
  def writeBlock(dir: Path, zone: ZoneId, blockId: Long, cols: Seq[String], rows: Array[Array[Long]],
      coveredLo: Long = -1L, coveredHi: Long = -1L, psn: Long = -1L): BlockMeta = {
    val file = blockFile(dir, blockId)
    ParquetIo.writeLongRows(file, cols, rows)
    val meta = BlockMeta(zone.name, blockId, file.toString, rows.length,
      rows.iterator.map(_(0)).min, rows.iterator.map(_(0)).max,
      rows.iterator.map(_(1)).min, rows.iterator.map(_(1)).max, coveredLo, coveredHi, psn)
    meta.write(dir)
    meta
  }
}

/** What the post-groomer has published under `sharedRoot` (paper §5.4): the
  * state, and the blocks it makes visible, listed on first use. A post-groom
  * covers groomed blocks up to `coveredHi`, publishes its blocks by moving
  * `nextBlockId` past them, and its endTS delta by moving `maxPsn` to its
  * PSN. Blocks beyond are from a post-groom that stopped before publishing
  * (the one that redoes its PSN may write fewer).
  */
final class PublishedView(sharedRoot: Path) {
  val (maxPsn, coveredHi, nextBlockId) = PostGroomer.readState(sharedRoot)
  lazy val groomed: Seq[BlockMeta] =
    BlockMeta.listIn(ShardFiles.zoneDir(sharedRoot, ZoneId.Groomed)).filter(_.blockId > coveredHi)
  lazy val postGroomed: Seq[BlockMeta] =
    BlockMeta.listIn(ShardFiles.zoneDir(sharedRoot, ZoneId.PostGroomed)).filter(_.blockId < nextBlockId)
}
