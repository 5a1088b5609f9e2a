package repro.core

import java.util.Arrays
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Multi-run reconciliation (paper §7.1.2): combine per-run range-scan
  * results so only the most recent visible version of each key is returned.
  */
object Reconcile {

  sealed trait Method
  /** Search runs newest to oldest, remember returned keys in a set. */
  case object SetApproach extends Method
  /** Merge per-run streams in key order with a priority queue. */
  case object PriorityQueueApproach extends Method

  /** Key order: equality values, then sort values, each as signed longs. */
  private def compareKeys(a: IndexEntry, b: IndexEntry): Int = {
    val c = Arrays.compare(a.eqValues, b.eqValues)
    if (c != 0) c else Arrays.compare(a.sortValues, b.sortValues)
  }

  private def sameKey(a: IndexEntry, b: IndexEntry): Boolean =
    Arrays.equals(a.eqValues, b.eqValues) && Arrays.equals(a.sortValues, b.sortValues)

  /** An entry's key in the set approach, hashed once. */
  private final class Key(val e: IndexEntry) {
    override val hashCode: Int = 31 * Arrays.hashCode(e.eqValues) + Arrays.hashCode(e.sortValues)
    override def equals(other: Any): Boolean = other match {
      case k: Key => sameKey(e, k.e)
      case _ => false
    }
  }

  /** Set approach: `perRun` holds each run's per-key most-recent matches, in
    * global newest-run-first order. A key already returned by a newer run
    * suppresses entries from older runs — including the benign duplicates an
    * in-flight evolve can produce across zones (paper §5.4).
    */
  def bySet(perRun: Seq[ArrayBuffer[IndexEntry]]): ArrayBuffer[IndexEntry] = {
    val seen = mutable.HashSet.empty[Key]
    val out = ArrayBuffer.empty[IndexEntry]
    perRun.foreach { results =>
      results.foreach { e =>
        if (seen.add(new Key(e))) out += e
      }
    }
    out
  }

  /** Priority-queue approach: a k-way merge over the per-run sorted results
    * retains a global key ordering (like the merge step of merge sort); for
    * each key the entry with the largest beginTS wins, newer runs breaking
    * ties (duplicates across zones carry equal timestamps).
    */
  def byPriorityQueue(perRun: Seq[ArrayBuffer[IndexEntry]]): ArrayBuffer[IndexEntry] = {
    // queue elements ordered by key, then beginTS descending, then run
    // recency (lower = newer)
    final class Elem(val e: IndexEntry, val runIdx: Int, val cursor: Int)
    val pq = new java.util.PriorityQueue[Elem](math.max(1, perRun.size), (a: Elem, b: Elem) => {
      val c = compareKeys(a.e, b.e)
      if (c != 0) c
      else if (a.e.beginTS != b.e.beginTS) java.lang.Long.compare(b.e.beginTS, a.e.beginTS)
      else Integer.compare(a.runIdx, b.runIdx)
    })
    perRun.zipWithIndex.foreach { case (results, r) =>
      if (results.nonEmpty) pq.add(new Elem(results(0), r, 0))
    }
    val out = ArrayBuffer.empty[IndexEntry]
    var last: IndexEntry = null
    while (!pq.isEmpty) {
      val top = pq.poll()
      if (last == null || !sameKey(top.e, last)) {
        out += top.e
        last = top.e
      }
      val next = top.cursor + 1
      val results = perRun(top.runIdx)
      if (next < results.size) pq.add(new Elem(results(next), top.runIdx, next))
    }
    out
  }

  def apply(method: Method, perRun: Seq[ArrayBuffer[IndexEntry]]): ArrayBuffer[IndexEntry] =
    method match {
      case SetApproach           => bySet(perRun)
      case PriorityQueueApproach => byPriorityQueue(perRun)
    }
}
