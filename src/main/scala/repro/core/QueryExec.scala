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

  /** Encode the full ordering prefix (hash + equality + sort values). */
  def encodeKey(defn: IndexDef, eqValues: Array[Long], sortValues: Array[Long]): (Option[Long], Array[Byte]) = {
    require(eqValues.length == defn.nEq, s"expected ${defn.nEq} equality values")
    require(sortValues.length == defn.nSort, s"expected ${defn.nSort} sort values")
    val bytes = new Array[Byte](defn.keyWidth)
    var p = 0
    val hash = if (defn.hasHash) {
      val h = defn.hashOf(eqValues)
      KeyCodec.writeLongRaw(h, bytes, p)
      p += KeyCodec.LongWidth
      Some(h)
    } else None
    var i = 0
    while (i < defn.nEq) { KeyCodec.writeLongOrdered(eqValues(i), bytes, p); p += 8; i += 1 }
    i = 0
    while (i < defn.nSort) { KeyCodec.writeLongOrdered(sortValues(i), bytes, p); p += 8; i += 1 }
    (hash, bytes)
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
    */
  def batchLookupIn(
      runs: Seq[IndexRun],
      defn: IndexDef,
      keys: Array[(Array[Long], Array[Long])],
      queryTS: Long,
      context: ReadContext): Array[Option[IndexEntry]] = {
    val n = keys.length
    val encoded = new Array[(Option[Long], Array[Byte])](n)
    var i = 0
    while (i < n) { encoded(i) = encodeKey(defn, keys(i)._1, keys(i)._2); i += 1 }
    // input positions in unsigned key order; the object sort is stable, so
    // equal keys keep their input order
    val order = Array.tabulate[Integer](n)(Int.box)
    Arrays.sort(order, (a: Integer, b: Integer) => Arrays.compareUnsigned(encoded(a)._2, encoded(b)._2))
    val results = new Array[Option[IndexEntry]](n)
    Arrays.fill(results.asInstanceOf[Array[AnyRef]], None)
    var remaining = n
    var r = 0
    while (r < runs.size && remaining > 0) {
      val run = runs(r)
      var k = 0
      while (k < n && remaining > 0) {
        val idx: Int = order(k)
        if (results(idx).isEmpty &&
            runMayMatch(run, keys(idx)._1, keys(idx)._2, keys(idx)._2)) {
          val hit = run.pointLookup(encoded(idx)._1, encoded(idx)._2, queryTS, context)
          if (hit.isDefined) { results(idx) = hit; remaining -= 1 }
        }
        k += 1
      }
      r += 1
    }
    results
  }
}
