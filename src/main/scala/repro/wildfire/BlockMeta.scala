package repro.wildfire

import java.nio.file.{Files, NoSuchFileException, Path}
import repro.storage.SharedStorage
import scala.jdk.CollectionConverters._
import scala.util.Using

/** Metadata sidecar for one columnar data block in a zone.
  *
  * Written next to each Parquet block by the groomer / post-groomer; carries
  * the per-block key-column min/max used for data skipping in the unified
  * scan (DESIGN.md §3, repro of the paper's synopsis idea at the data-block
  * granularity) plus the groomed-block coverage needed by the evolve rule.
  *
  * Stored as java.util.Properties — human-readable, no extra dependency. The
  * sidecar holds no path: `file` is the block next to it wherever it is read.
  */
final case class BlockMeta(
    zone: String,
    blockId: Long,
    file: String,
    count: Long,
    minDevice: Long,
    maxDevice: Long,
    minMsg: Long,
    maxMsg: Long,
    /** For post-groomed blocks: range of groomed block IDs they cover. */
    coveredLo: Long = -1L,
    coveredHi: Long = -1L,
    psn: Long = -1L) {

  /** Atomically write this sidecar into the zone directory `dir`. */
  def write(dir: Path): Unit =
    SharedStorage.writeProperties(ShardFiles.metaFile(dir, blockId),
      "zone" -> zone, "blockId" -> blockId, "count" -> count,
      "minDevice" -> minDevice, "maxDevice" -> maxDevice, "minMsg" -> minMsg, "maxMsg" -> maxMsg,
      "coveredLo" -> coveredLo, "coveredHi" -> coveredHi, "psn" -> psn)
}

object BlockMeta {

  /** The sidecar `path`, whose block is the one next to it. */
  def read(path: Path): BlockMeta = {
    val p = SharedStorage.readProperties(path).getOrElse(throw new NoSuchFileException(path.toString))
    def long(key: String): Long = p(key).toLong
    BlockMeta(
      zone = p("zone"),
      blockId = long("blockId"),
      file = ShardFiles.blockFile(path.getParent, long("blockId")).toString,
      count = long("count"),
      minDevice = long("minDevice"),
      maxDevice = long("maxDevice"),
      minMsg = long("minMsg"),
      maxMsg = long("maxMsg"),
      coveredLo = long("coveredLo"),
      coveredHi = long("coveredHi"),
      psn = long("psn"))
  }

  /** All block metas under `dir` (its sidecar files). */
  def listIn(dir: Path): Seq[BlockMeta] =
    if (!Files.exists(dir)) Seq.empty
    else Using.resource(Files.list(dir))(_.iterator().asScala
      .filter(_.getFileName.toString.endsWith(ShardFiles.MetaSuffix))
      .map(read)
      .toSeq
      .sortBy(_.blockId))
}
