package repro.core

import java.util.Arrays
import scala.collection.mutable.ArrayBuffer

/** Inclusive range of groomed block IDs a run covers (paper §4.2, Fig 3). */
final case class BlockRange(lo: Long, hi: Long) {
  require(lo <= hi, s"bad block range [$lo,$hi]")
  def union(other: BlockRange): BlockRange =
    BlockRange(math.min(lo, other.lo), math.max(hi, other.hi))
  def containsAll(other: BlockRange): Boolean = lo <= other.lo && hi >= other.hi
  override def toString: String = s"[$lo-$hi]"
}

/** One immutable sorted index run (paper §4.2).
  *
  * Logically a sorted table of index entries; physically a header (metadata,
  * synopsis, offset array) plus `data` — a flat array of fixed-width entries
  * partitioned into fixed-size data blocks of `entriesPerBlock` entries.
  * Entries are ordered by (hash, equality cols, sort cols, beginTS DESC) in
  * the lexicographically comparable encoding of [[KeyCodec]], so all searches
  * are unsigned memory compares.
  *
  * @param ancestorRunIds persisted runs that this (non-persisted-level) run
  *        transitively replaces; they may only be deleted from shared storage
  *        once a descendant reaches a persisted level again (paper §6.1)
  */
final class IndexRun(
    val defn: IndexDef,
    val id: Long,
    val zone: ZoneId,
    val level: Int,
    val blockRange: BlockRange,
    val count: Int,
    val entriesPerBlock: Int,
    val synopsis: Synopsis,
    val offsetArray: Option[OffsetArray],
    val data: Array[Byte],
    val ancestorRunIds: Seq[Long] = Seq.empty) {

  require(data.length == count.toLong * defn.entryWidth, "data size mismatch")
  require(entriesPerBlock > 0, "entriesPerBlock must be positive")

  /** Number of fixed-size data blocks (last one may be partial). */
  val numDataBlocks: Int =
    if (count == 0) 0 else (count + entriesPerBlock - 1) / entriesPerBlock

  def sizeBytes: Long = data.length.toLong

  @inline private def pos(i: Int): Int = i * defn.entryWidth

  // `blockOf` divides by a multiply and a shift: with l = ceil(log2 d) and
  // m = ceil(2^(31+l) / d), floor(i * m / 2^(31+l)) == i / d for every
  // 0 <= i < 2^31, and i * m < 2^63 never overflows.
  private val blockShift: Int = 31 + (32 - Integer.numberOfLeadingZeros(entriesPerBlock - 1))
  private val blockMul: Long = ((1L << blockShift) + entriesPerBlock - 1) / entriesPerBlock

  /** Data block holding entry `i`, i.e. `i / entriesPerBlock`. */
  @inline def blockOf(i: Int): Int = ((i * blockMul) >>> blockShift).toInt

  /** Decode the i-th entry (touches its block through `ctx`). */
  def entryAt(i: Int, ctx: ReadContext): IndexEntry = {
    ctx.touch(this, blockOf(i))
    IndexEntry.read(defn, data, pos(i))
  }

  /** Decode the i-th entry without I/O accounting (tests, merges). */
  def entryAtUncounted(i: Int): IndexEntry = IndexEntry.read(defn, data, pos(i))

  /** All entries, in index order; no I/O accounting (tests, recovery). */
  def entries: IndexedSeq[IndexEntry] =
    (0 until count).map(entryAtUncounted)

  /** beginTS of the i-th entry. */
  @inline def tsAt(i: Int): Long = KeyCodec.readTsDescending(data, pos(i) + defn.tsOffset)

  /** Compare the first `len` key bytes of entry `i` with `probe[0..len)`. */
  @inline def comparePrefix(i: Int, probe: Array[Byte], len: Int): Int =
    KeyCodec.compareUnsigned(data, pos(i), probe, 0, len)

  /** Do entries `i` and `j` share the same full key (hash+eq+sort bytes)? */
  @inline def sameKey(i: Int, j: Int): Boolean =
    KeyCodec.compareUnsigned(data, pos(i), data, pos(j), defn.keyWidth) == 0

  /** First index in [from, until) whose `len`-byte key prefix is >= probe
    * (binary search; each probe touches the probed entry's block).
    */
  def lowerBound(probe: Array[Byte], len: Int, from: Int, until: Int, ctx: ReadContext): Int = {
    var lo = from
    var hi = until
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      ctx.touch(this, blockOf(mid))
      if (comparePrefix(mid, probe, len) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Single-run range search (paper §7.1.1): returns the most recent version
    * (beginTS <= queryTS) of every key whose ordering prefix lies between
    * `lowerKey` and `upperKey` (both of length `prefixLen`, inclusive).
    *
    * The caller builds the concatenated bounds: hash bytes + equality column
    * values + sort-column lower/upper bound. If the offset array exists it
    * narrows the initial binary-search range to the hash bucket.
    */
  def searchRange(
      hashForBounds: Option[Long],
      lowerKey: Array[Byte],
      upperKey: Array[Byte],
      prefixLen: Int,
      queryTS: Long,
      ctx: ReadContext): ArrayBuffer[IndexEntry] = {
    val out = ArrayBuffer.empty[IndexEntry]
    if (count == 0) return out
    val (from, until) = (offsetArray, hashForBounds) match {
      case (Some(oa), Some(h)) => oa.range(h, count)
      case _ => (0, count)
    }
    var i = lowerBound(lowerKey, prefixLen, from, until, ctx)
    var lastKeyIdx = -1
    var emittedForKey = false
    while (i < until) {
      ctx.touch(this, blockOf(i))
      if (comparePrefix(i, upperKey, prefixLen) > 0) return out
      val newKey = lastKeyIdx < 0 || !sameKey(i, lastKeyIdx)
      if (newKey) { lastKeyIdx = i; emittedForKey = false }
      if (!emittedForKey && tsAt(i) <= queryTS) {
        out += entryAt(i, ctx)
        emittedForKey = true
      }
      i += 1
    }
    out
  }

  /** Unsigned order of entry `i`'s key against the `defn.keyWidth`-byte key
    * at `keys(kp)`: the order of [[comparePrefix]], compared one big-endian
    * 8-byte word at a time (every key column is one word). Entries under one
    * hash tie on their first words, where a word load costs less than a
    * byte-range compare.
    */
  @inline private def compareKey(i: Int, keys: Array[Byte], kp: Int): Int = {
    val p = pos(i)
    var w = 0
    var a = KeyCodec.readLongRaw(data, p)
    var b = KeyCodec.readLongRaw(keys, kp)
    while (a == b && w + KeyCodec.LongWidth < defn.keyWidth) {
      w += KeyCodec.LongWidth
      a = KeyCodec.readLongRaw(data, p + w)
      b = KeyCodec.readLongRaw(keys, kp + w)
    }
    java.lang.Long.compareUnsigned(a, b)
  }

  /** [[pointLookup]] of the keys `cand(start until end)` of a batch, at most
    * [[QueryExec.GroupSize]] of them, in that order: `keys` holds each key's
    * `defn.keyWidth` bytes at its row number and `hashes` its hash. A hit
    * stores its entry in `results` at the key's row number. `scratch` holds
    * at least `4 * GroupSize` ints. Returns the number of hits.
    *
    * The binary searches first advance together, one probe per key per round
    * and without I/O accounting, so the cache misses of different keys
    * overlap. Then each key in turn replays its probe path, so `ctx` sees
    * the same first block touches, in the same order, as one [[pointLookup]]
    * per key: a probe `mid` of [[lowerBound]] goes right exactly when `mid`
    * is below the search's result.
    */
  private[core] def pointLookups(
      keys: Array[Byte],
      hashes: Array[Long],
      cand: Array[Int],
      start: Int,
      end: Int,
      queryTS: Long,
      ctx: ReadContext,
      results: Array[Option[IndexEntry]],
      scratch: Array[Int]): Int = {
    val kw = defn.keyWidth
    val g = end - start
    // scratch: bucket start, bucket end, then the searches' lo and hi
    val From = 0
    val Until = g
    val Lo = 2 * g
    val Hi = 3 * g
    val oa = offsetArray.orNull
    var j = 0
    while (j < g) {
      var from = 0
      var until = count
      if (oa != null) {
        val bucket = OffsetArray.bucketOf(hashes(cand(start + j)), oa.bits)
        from = oa.offsets(bucket)
        if (bucket + 1 < oa.offsets.length) until = oa.offsets(bucket + 1)
      }
      scratch(From + j) = from; scratch(Lo + j) = from
      scratch(Until + j) = until; scratch(Hi + j) = until
      j += 1
    }
    var searching = true
    while (searching) {
      searching = false
      j = 0
      while (j < g) {
        val lo = scratch(Lo + j)
        val hi = scratch(Hi + j)
        if (lo < hi) {
          val mid = (lo + hi) >>> 1
          val less = compareKey(mid, keys, cand(start + j) * kw) < 0
          scratch(Lo + j) = if (less) mid + 1 else lo
          scratch(Hi + j) = if (less) hi else mid
          searching = true
        }
        j += 1
      }
    }
    var hits = 0
    j = 0
    while (j < g) {
      val k = cand(start + j)
      val found = scratch(Lo + j)
      val until = scratch(Until + j)
      var lo = scratch(From + j)
      var hi = until
      // A touch of the block touched just before touches nothing new, so
      // the replay skips it, and stops once the rest of the path lies in
      // that block. The selects, not branches, keep the unpredictable
      // left/right step from costing a mispredict per probe.
      var last = -1
      while (lo < hi && !(blockOf(lo) == last && blockOf(hi - 1) == last)) {
        val mid = (lo + hi) >>> 1
        val block = blockOf(mid)
        if (block != last) { ctx.touch(this, block); last = block }
        val right = mid < found
        lo = if (right) mid + 1 else lo
        hi = if (right) hi else mid
      }
      var i = found
      while (i < until) {
        val block = blockOf(i)
        if (block != last) { ctx.touch(this, block); last = block }
        if (compareKey(i, keys, k * kw) != 0) i = until
        else if (tsAt(i) <= queryTS) {
          results(k) = Some(entryAtUncounted(i)) // its block is touched
          hits += 1
          i = until
        } else i += 1
      }
      j += 1
    }
    hits
  }

  /** Single-run point lookup: most recent version (beginTS <= queryTS) of the
    * exact key `keyBytes` (full keyWidth prefix), if present in this run.
    */
  def pointLookup(
      hash: Option[Long],
      keyBytes: Array[Byte],
      queryTS: Long,
      ctx: ReadContext): Option[IndexEntry] = {
    if (count == 0) return None
    val (from, until) = (offsetArray, hash) match {
      case (Some(oa), Some(h)) => oa.range(h, count)
      case _ => (0, count)
    }
    var i = lowerBound(keyBytes, defn.keyWidth, from, until, ctx)
    while (i < until) {
      ctx.touch(this, blockOf(i))
      if (comparePrefix(i, keyBytes, defn.keyWidth) != 0) return None
      if (tsAt(i) <= queryTS) return Some(entryAt(i, ctx))
      i += 1
    }
    None
  }

  override def toString: String =
    s"Run(id=$id zone=$zone level=$level blocks=$blockRange count=$count)"
}

object IndexRun {

  /** Default entries per fixed-size data block (~entryWidth*512 bytes/block). */
  val DefaultEntriesPerBlock: Int = 512

  /** Groups of at most this many rows that tie on every byte before the
    * current one are insertion-sorted by a byte compare of the rest of the
    * row instead of another radix pass.
    */
  private[core] val SmallSortCutoff: Int = 16

  /** Build a run by sorting `entries` (paper §5.2: scan the groomed block,
    * sort entries by hash, key columns and descending beginTS, compute the
    * offset array on the fly while writing data blocks).
    *
    * Each entry is encoded once into a flat scratch array. Every column is a
    * big-endian field, so the index order is the unsigned byte order of these
    * rows; [[RowSorter]] finds it as a permutation of row numbers, and the
    * rows are then copied once, in that order, into `data`.
    */
  def build(
      defn: IndexDef,
      id: Long,
      zone: ZoneId,
      level: Int,
      blockRange: BlockRange,
      entries: Array[IndexEntry],
      entriesPerBlock: Int = DefaultEntriesPerBlock): IndexRun = {
    val n = entries.length
    val w = defn.entryWidth
    require(n.toLong * w <= Int.MaxValue, "run too large")
    val rows = new Array[Byte](n * w)
    val order = new Array[Int](n)
    var i = 0
    while (i < n) {
      IndexEntry.write(defn, entries(i), rows, i * w)
      order(i) = i
      i += 1
    }
    new RowSorter(rows, w, order).sort(0, n, 0)
    val data = new Array[Byte](n * w)
    i = 0
    while (i < n) {
      System.arraycopy(rows, order(i) * w, data, i * w, w)
      i += 1
    }
    fromSortedData(defn, id, zone, level, blockRange, data, entriesPerBlock, Seq.empty)
  }

  /** MSD radix sort of the row numbers in `order` by the unsigned bytes of
    * their `width`-byte rows in `rows`.
    *
    * A group of rows that tie on their first `from` bytes first skips every
    * further byte the whole group ties on (one vectorized mismatch per row),
    * so columns a group shares, such as the equality columns under one hash,
    * cost no pass. It is then split into 256 buckets by its next byte with
    * one counting pass, and each bucket is sorted the same way on the bytes
    * after. Groups of at most [[SmallSortCutoff]] rows are insertion-sorted.
    * Every pass is linear, so no input, not even one key repeated for every
    * row, makes the sort quadratic.
    */
  private[core] final class RowSorter(rows: Array[Byte], width: Int, order: Array[Int]) {
    private val scratch = new Array[Int](order.length)
    // bucket starts of the pass at each byte position, allocated on first use
    private val bucketStarts = new Array[Array[Int]](width)

    def sort(lo: Int, hi: Int, from: Int): Unit = {
      if (hi - lo <= SmallSortCutoff) { insertionSort(lo, hi, from); return }
      val first = order(lo) * width
      var tie = width - from
      var j = lo + 1
      while (j < hi && tie > 0) {
        val pos = order(j) * width
        val m = Arrays.mismatch(rows, first + from, first + from + tie, rows, pos + from, pos + from + tie)
        if (m >= 0) tie = m
        j += 1
      }
      val p = from + tie
      if (p == width) return // identical rows
      var starts = bucketStarts(p)
      if (starts == null) { starts = new Array[Int](256); bucketStarts(p) = starts }
      else Arrays.fill(starts, 0)
      j = lo
      while (j < hi) { starts(rows(order(j) * width + p) & 0xff) += 1; j += 1 }
      var end = lo
      var b = 0
      while (b < 256) { end += starts(b); starts(b) = end; b += 1 }
      j = hi - 1
      while (j >= lo) {
        val bucket = rows(order(j) * width + p) & 0xff
        starts(bucket) -= 1
        scratch(starts(bucket)) = order(j)
        j -= 1
      }
      System.arraycopy(scratch, lo, order, lo, hi - lo)
      b = 0
      while (b < 256) {
        val bucketEnd = if (b < 255) starts(b + 1) else hi
        if (bucketEnd - starts(b) > 1) sort(starts(b), bucketEnd, p + 1)
        b += 1
      }
    }

    private def insertionSort(lo: Int, hi: Int, from: Int): Unit = {
      val len = width - from
      var i = lo + 1
      while (i < hi) {
        val x = order(i)
        val xPos = x * width + from
        var j = i - 1
        while (j >= lo && KeyCodec.compareUnsigned(rows, order(j) * width + from, rows, xPos, len) > 0) {
          order(j + 1) = order(j)
          j -= 1
        }
        order(j + 1) = x
        i += 1
      }
    }
  }

  /** Wrap already-sorted entry bytes into a run, rebuilding the header. */
  def fromSortedData(
      defn: IndexDef,
      id: Long,
      zone: ZoneId,
      level: Int,
      blockRange: BlockRange,
      data: Array[Byte],
      entriesPerBlock: Int,
      ancestors: Seq[Long]): IndexRun = {
    val w = defn.entryWidth
    require(data.length % w == 0, "data not a whole number of entries")
    val count = data.length / w
    val syn = synopsisOfData(defn, data, count)
    val oa =
      if (defn.hasHash) {
        val hashes = new Array[Long](count)
        var i = 0
        while (i < count) { hashes(i) = KeyCodec.readLongRaw(data, i * w); i += 1 }
        Some(OffsetArray.build(defn.offsetArrayBits, hashes))
      } else None
    new IndexRun(defn, id, zone, level, blockRange, count, entriesPerBlock, syn, oa, data, ancestors)
  }

  private def synopsisOfData(defn: IndexDef, data: Array[Byte], count: Int): Synopsis = {
    val n = defn.nEq + defn.nSort
    val mins = Array.fill(n)(Long.MaxValue)
    val maxs = Array.fill(n)(Long.MinValue)
    val w = defn.entryWidth
    var i = 0
    while (i < count) {
      var c = 0
      while (c < n) {
        val v = KeyCodec.readLongOrdered(data, i * w + defn.eqOffset + c * KeyCodec.LongWidth)
        if (v < mins(c)) mins(c) = v
        if (v > maxs(c)) maxs(c) = v
        c += 1
      }
      i += 1
    }
    Synopsis(mins, maxs)
  }

  /** K-way merge of sorted input runs into one run at `level` (paper §5.3).
    *
    * Inputs must share the index definition; exact byte-level duplicates
    * (the same version of the same record) collapse to one entry. All other
    * versions are retained — Umzi is a multi-version index and old versions
    * remain visible to time-travel queries.
    */
  def merge(
      defn: IndexDef,
      id: Long,
      zone: ZoneId,
      level: Int,
      inputs: Seq[IndexRun],
      entriesPerBlock: Int = DefaultEntriesPerBlock,
      ancestors: Seq[Long] = Seq.empty): IndexRun = {
    require(inputs.nonEmpty, "merge needs at least one input")
    val w = defn.entryWidth
    val totalCount = inputs.map(_.count.toLong).sum
    require(totalCount <= Int.MaxValue / w, "merged run too large")
    val out = new Array[Byte](totalCount.toInt * w)
    // cursor per input; pick the smallest current entry each step
    val cursors = Array.fill(inputs.size)(0)
    var written = 0
    var lastWrittenPos = -1
    while (true) {
      var best = -1
      var r = 0
      while (r < inputs.size) {
        if (cursors(r) < inputs(r).count) {
          if (best < 0) best = r
          else {
            val cmp = KeyCodec.compareUnsigned(
              inputs(r).data, cursors(r) * w,
              inputs(best).data, cursors(best) * w, w)
            if (cmp < 0) best = r
          }
        }
        r += 1
      }
      if (best < 0) {
        // trim only when an exact duplicate collapsed
        val data = if (written * w == out.length) out else Arrays.copyOf(out, written * w)
        val range = inputs.map(_.blockRange).reduce(_ union _)
        return fromSortedData(defn, id, zone, level, range, data, entriesPerBlock, ancestors)
      }
      val src = inputs(best).data
      val srcPos = cursors(best) * w
      val isDup = lastWrittenPos >= 0 &&
        KeyCodec.compareUnsigned(out, lastWrittenPos, src, srcPos, w) == 0
      if (!isDup) {
        System.arraycopy(src, srcPos, out, written * w, w)
        lastWrittenPos = written * w
        written += 1
      }
      cursors(best) += 1
    }
    throw new IllegalStateException("unreachable")
  }
}
