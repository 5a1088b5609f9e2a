package repro.wildfire

import java.nio.file.{Files, Path}
import repro.core._
import repro.storage.SharedStorage
import scala.collection.mutable.ArrayBuffer

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
final class PostGroomer(sharedRoot: Path, index: UmziIndex) {

  val postDir: Path = ShardFiles.zoneDir(sharedRoot, ZoneId.PostGroomed)
  val endtsDir: Path = ShardFiles.endtsDir(sharedRoot)
  Files.createDirectories(postDir)
  Files.createDirectories(endtsDir)

  /** (maxPsn, coveredGroomedHi, nextPostBlockId) published on shared storage. */
  def readState(): (Long, Long, Long) = PostGroomer.readState(sharedRoot)

  /** Post-groom the groomed blocks the published state does not cover yet.
    * Returns None when there is nothing to do.
    */
  def postGroom(): Option[PostGroomResult] = {
    val view = new PublishedView(sharedRoot)
    if (view.groomed.isEmpty) return None
    val psn = view.maxPsn + 1
    val nextBlockId = view.nextBlockId
    val newCoveredLo = view.groomed.head.blockId
    val newCoveredHi = view.groomed.last.blockId

    // Scan the newly groomed blocks: rows of (deviceId, msgNum, value, beginTS).
    val raw = view.groomed.toArray.flatMap(m =>
      ParquetIo.readLongRows(m.file, "deviceId", "msgNum", "value", "beginTS"))

    // The partition key: contiguous msgNum ranges sized to produce
    // `TargetBlocksPerPostGroom` larger blocks (the floor of a double
    // quotient, as SQL's `floor(a / b)` computes it).
    val minMsg = raw.iterator.map(_(1)).min
    val width = math.max(1L, (raw.iterator.map(_(1)).max - minMsg + 1) / PostGroomer.TargetBlocksPerPostGroom)
    def partKey(msg: Long): Long = math.floor((msg - minMsg).toDouble / width).toLong

    // One stable sort by (partKey, deviceId, msgNum, beginTS): each output
    // block is a contiguous slice in offset order, and the versions of a key
    // are adjacent, oldest first.
    val byPartKeyAndVersion: Ordering[Array[Long]] = (a, b) => {
      val c = java.lang.Long.compare(partKey(a(1)), partKey(b(1)))
      if (c != 0) c
      else if (a(0) != b(0)) java.lang.Long.compare(a(0), b(0))
      else if (a(1) != b(1)) java.lang.Long.compare(a(1), b(1))
      else java.lang.Long.compare(a(3), b(3))
    }
    val rows = raw.sorted(byPartKeyAndVersion)
    def olderVersionAt(i: Int): Boolean = i > 0 && rows(i)(0) == rows(i - 1)(0) && rows(i)(1) == rows(i - 1)(1)

    // 1. Use the post-groomed portion of the index to find the most recent
    //    already-post-groomed version of each incoming primary key, keyed by
    //    the row of the key's oldest new version.
    val firsts = rows.indices.filterNot(olderVersionAt).toArray
    val lookedUp = QueryExec.batchLookupIn(
      index.postGroomedList.snapshot, index.config.defn,
      firsts.map(i => (Array(rows(i)(0)), Array(rows(i)(1)))),
      Long.MaxValue, index.newReadContext())
    val replaced: Map[Int, IndexEntry] =
      firsts.iterator.zip(lookedUp).collect { case (i, Some(e)) => i -> e }.toMap

    // 2. One pass assigns block IDs (partition keys in sorted order from
    //    nextBlockId), offsets, endTS (the next version's beginTS) and the
    //    prevRID chain: a key's oldest new version points at the replaced
    //    post-groomed record (if any), every later one at its predecessor.
    val out = new Array[Array[Long]](rows.length)
    val starts = ArrayBuffer.empty[Int] // first row of each output block
    var off = 0L
    var i = 0
    while (i < rows.length) {
      val Array(device, msg, value, beginTS) = rows(i)
      if (i == 0 || partKey(msg) != partKey(rows(i - 1)(1))) { starts += i; off = 0L }
      val (pZone, pBlock, pOffset) =
        if (olderVersionAt(i)) {
          out(i - 1)(4) = beginTS
          (ZoneId.PostGroomed.code.toLong, nextBlockId + starts.length - 1, off - 1)
        } else replaced.get(i) match {
          case Some(e) => (e.rid.zone.code.toLong, e.rid.blockId, e.rid.offset.toLong)
          case None => (-1L, -1L, -1L)
        }
      out(i) = Array(device, msg, value, beginTS, Long.MaxValue, pZone, pBlock, pOffset, off)
      off += 1
      i += 1
    }

    // 3. endTS delta for the replaced post-groomed records, appended since
    //    shared storage forbids in-place updates: endTS is the earliest new
    //    beginTS of the same key.
    if (replaced.nonEmpty) {
      val delta = replaced.toArray
        .map { case (first, e) => Array(e.rid.blockId, e.rid.offset.toLong, rows(first)(3)) }
        .sortBy(r => (r(0), r(1)))
      ParquetIo.writeLongRows(ShardFiles.endTsDeltaFile(sharedRoot, psn), Seq("blockId", "offset", "endTS"), delta)
    }

    // 4. Write the re-organized blocks and their sidecars.
    val ends = starts.drop(1) :+ rows.length
    val metas = starts.indices.map { b =>
      ShardFiles.writeBlock(postDir, ZoneId.PostGroomed, nextBlockId + b, PostGroomer.Columns,
        out.slice(starts(b), ends(b)), newCoveredLo, newCoveredHi, psn)
    }

    // 5. Publish: the indexer polls MaxPSN and evolves the index (Fig 5).
    PostGroomer.writeState(sharedRoot, psn, newCoveredHi, nextBlockId + metas.length)
    Some(PostGroomResult(psn, BlockRange(newCoveredLo, newCoveredHi), metas))
  }
}

object PostGroomer {

  /** Columns of a post-groomed block file, in file order. */
  val Columns: Seq[String] = Seq("deviceId", "msgNum", "value", "beginTS", "endTS",
    "prevZone", "prevBlock", "prevOffset", "offset")

  /** About how many blocks one post-groom re-organizes its records into. */
  val TargetBlocksPerPostGroom: Int = 4

  /** (maxPsn, coveredGroomedHi, nextPostBlockId) published under `sharedRoot`;
    * the one parser of the state file, shared by every reader of the shard.
    */
  def readState(sharedRoot: Path): (Long, Long, Long) =
    SharedStorage.readProperties(ShardFiles.stateFile(sharedRoot)).fold((-1L, -1L, 1_000_000L))(p =>
      (p("maxPsn").toLong, p("coveredHi").toLong, p("nextBlockId").toLong))

  /** Atomically publish the state that [[readState]] reads. */
  def writeState(sharedRoot: Path, maxPsn: Long, coveredHi: Long, nextBlockId: Long): Unit =
    SharedStorage.writeProperties(ShardFiles.stateFile(sharedRoot),
      "maxPsn" -> maxPsn, "coveredHi" -> coveredHi, "nextBlockId" -> nextBlockId)
}
