package repro.core

import java.util.Arrays
import scala.collection.mutable.ArrayBuffer

/** Index query processing (paper §7).
  *
  * Both query types specify a `queryTS` (Umzi is multi-version): only the
  * most recent version with beginTS <= queryTS is returned per matching key.
  * Queries are lock-free — they operate on a run-list snapshot — and prune
  * candidate runs with the per-run synopses before searching.
  */
object QueryExec {

  /** Keys a batch lookup searches for together in one run. */
  private[core] val GroupSize: Int = 16

  /** Encode the full ordering prefix (hash + equality + sort values). */
  def encodeKey(defn: IndexDef, eqValues: Array[Long], sortValues: Array[Long]): (Option[Long], Array[Byte]) = {
    val bytes = new Array[Byte](defn.keyWidth)
    val hash = writeKey(defn, eqValues, sortValues, bytes, 0)
    (if (defn.hasHash) Some(hash) else None, bytes)
  }

  /** Write the `defn.keyWidth`-byte ordering prefix of a key into `dst` at
    * `pos`; returns its hash (0 when the index has no hash column).
    */
  private def writeKey(defn: IndexDef, eqValues: Array[Long], sortValues: Array[Long],
      dst: Array[Byte], pos: Int): Long = {
    require(eqValues.length == defn.nEq, s"expected ${defn.nEq} equality values")
    require(sortValues.length == defn.nSort, s"expected ${defn.nSort} sort values")
    var p = pos
    val hash = if (defn.hasHash) {
      val h = defn.hashOf(eqValues)
      KeyCodec.writeLongRaw(h, dst, p)
      p += KeyCodec.LongWidth
      h
    } else 0L
    var i = 0
    while (i < defn.nEq) { KeyCodec.writeLongOrdered(eqValues(i), dst, p); p += 8; i += 1 }
    i = 0
    while (i < defn.nSort) { KeyCodec.writeLongOrdered(sortValues(i), dst, p); p += 8; i += 1 }
    hash
  }

  /** Can `run` contain matches for the given equality values and (first)
    * sort-column range? (synopsis pruning, paper §4.2/§7)
    */
  def runMayMatch(
      run: IndexRun,
      eqValues: Array[Long],
      sortLo: Array[Long],
      sortHi: Array[Long]): Boolean = {
    val defn = run.defn
    var i = 0
    while (i < defn.nEq) {
      if (!run.synopsis.contains(i, eqValues(i))) return false
      i += 1
    }
    if (defn.nSort > 0 && sortLo.nonEmpty && sortHi.nonEmpty) {
      if (!run.synopsis.overlaps(defn.nEq, sortLo(0), sortHi(0))) return false
    }
    true
  }

  /** Range scan (paper §7.1): equality values for all equality columns plus
    * inclusive bounds for the sort columns; returns the most recent visible
    * version of every matching key, reconciled across runs.
    */
  def rangeScan(
      index: UmziIndex,
      eqValues: Array[Long],
      sortLo: Array[Long],
      sortHi: Array[Long],
      queryTS: Long,
      method: Reconcile.Method = Reconcile.PriorityQueueApproach,
      ctx: ReadContext = null): ArrayBuffer[IndexEntry] = {
    val defn = index.config.defn
    val context = if (ctx == null) index.newReadContext() else ctx
    val (hash, lower) = encodeKey(defn, eqValues, sortLo)
    val (_, upper) = encodeKey(defn, eqValues, sortHi)
    val candidates = index.visibleRuns().filter(runMayMatch(_, eqValues, sortLo, sortHi))
    val perRun = candidates.map(_.searchRange(hash, lower, upper, defn.keyWidth, queryTS, context))
    Reconcile(method, perRun)
  }

  /** Single point lookup (paper §7.2): the entire key is specified; search
    * newest to oldest and stop at the first match.
    */
  def pointLookup(
      index: UmziIndex,
      eqValues: Array[Long],
      sortValues: Array[Long],
      queryTS: Long,
      ctx: ReadContext = null): Option[IndexEntry] = {
    val defn = index.config.defn
    val context = if (ctx == null) index.newReadContext() else ctx
    val (hash, keyBytes) = encodeKey(defn, eqValues, sortValues)
    val runs = index.visibleRuns()
    var i = 0
    while (i < runs.size) {
      val run = runs(i)
      if (runMayMatch(run, eqValues, sortValues, sortValues)) {
        val hit = run.pointLookup(hash, keyBytes, queryTS, context)
        if (hit.isDefined) return hit
      }
      i += 1
    }
    None
  }

  /** Batched point lookups (paper §7.2): input keys are sorted by (hash,
    * equality, sort) so each run is probed in sequential key order, runs are
    * visited newest to oldest one at a time, and the batch stops early once
    * every key is found. Result order matches the input order.
    */
  def batchLookup(
      index: UmziIndex,
      keys: Array[(Array[Long], Array[Long])],
      queryTS: Long,
      ctx: ReadContext = null): Array[Option[IndexEntry]] = {
    val context = if (ctx == null) index.newReadContext() else ctx
    batchLookupIn(index.visibleRuns(), index.config.defn, keys, queryTS, context)
  }

  /** Batched point lookups against an explicit run snapshot — used by the
    * post-groomer, which consults only the post-groomed portion of the index
    * to find the RIDs of records it is about to replace (paper §2.1, §5.4).
    *
    * The keys are encoded once into one flat array and put in stable key
    * order (equal keys keep their input order). In each run, the keys not yet
    * found that pass the run's synopsis are looked up [[GroupSize]] at a time
    * by [[IndexRun.pointLookups]], which touches blocks in the same order as
    * one [[IndexRun.pointLookup]] per key in key order.
    */
  def batchLookupIn(
      runs: Seq[IndexRun],
      defn: IndexDef,
      keys: Array[(Array[Long], Array[Long])],
      queryTS: Long,
      context: ReadContext): Array[Option[IndexEntry]] = {
    val n = keys.length
    val kw = defn.keyWidth
    val flat = new Array[Byte](n * kw)
    val hashes = new Array[Long](n)
    val order = new Array[Int](n)
    var sorted = true
    var i = 0
    while (i < n) {
      hashes(i) = writeKey(defn, keys(i)._1, keys(i)._2, flat, i * kw)
      order(i) = i
      if (sorted && i > 0 && KeyCodec.compareUnsigned(flat, (i - 1) * kw, flat, i * kw, kw) > 0) sorted = false
      i += 1
    }
    if (!sorted) new IndexRun.RowSorter(flat, kw, order).sort(0, n, 0)
    val results = new Array[Option[IndexEntry]](n)
    Arrays.fill(results.asInstanceOf[Array[AnyRef]], None)
    val cand = new Array[Int](n)
    val scratch = new Array[Int](4 * GroupSize)
    var remaining = n
    var r = 0
    while (r < runs.size && remaining > 0) {
      val run = runs(r)
      var m = 0
      var k = 0
      while (k < n) {
        val idx = order(k)
        if ((results(idx) eq None) && runMayMatch(run, keys(idx)._1, keys(idx)._2, keys(idx)._2)) {
          cand(m) = idx
          m += 1
        }
        k += 1
      }
      var g = 0
      while (g < m) {
        val end = math.min(g + GroupSize, m)
        remaining -= run.pointLookups(flat, hashes, cand, g, end, queryTS, context, results, scratch)
        g = end
      }
      r += 1
    }
    results
  }
}
