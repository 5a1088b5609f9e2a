package repro.bench

import repro.core._
import repro.storage.{CacheManager, TierConfig}
import scala.util.Random

/** Builds synthetic index entries and multi-run indexes for the micro-
  * benchmarks (paper §8.1–§8.3).
  *
  * Keys are drawn from a dense linear key space `k`: *sequential* ingest
  * numbers keys in order (time-correlated, so each run covers a narrow key
  * range and synopses prune well), *random* ingest samples `k` uniformly
  * from a domain twice the data size (each run spans the whole key space,
  * defeating synopsis pruning — the Fig 10 vs Fig 11 contrast).
  *
  * Key-to-column mapping: device = k / 2^20, msg = k mod 2^20 — so one
  * device holds up to ~1M consecutive messages and the paper's large range
  * scans (up to 10^6 keys) stay within one equality value.
  */
object RunFactory {

  val MsgsPerDevice: Long = 1L << 20

  /** Key columns (equality values, sort values) of linear key `k` under the
    * given index definition.
    */
  def toLookupKey(defn: IndexDef, k: Long): (Array[Long], Array[Long]) = {
    val dev = k / MsgsPerDevice
    val msg = k % MsgsPerDevice
    (defn.nEq, defn.nSort) match {
      case (1, 1) => (Array(dev), Array(msg))        // I1
      case (2, 0) => (Array(dev, msg), Array.empty)  // I2
      case (1, 0) => (Array(k), Array.empty)         // I3
      case _ => throw new IllegalArgumentException(s"unsupported definition $defn")
    }
  }

  /** The ingested linear keys: sequential 0..n-1 or uniform over [0, 2n). */
  def keys(n: Int, sequential: Boolean, seed: Long): Array[Long] =
    if (sequential) Array.tabulate(n)(_.toLong)
    else {
      val r = new Random(seed)
      Array.fill(n)(math.abs(r.nextLong()) % (2L * n))
    }

  /** Groomed-zone entries of keys `ks`, with `k` itself as the included value. */
  def entries(defn: IndexDef, ks: Array[Long], tsBase: Long, blockId: Long): Array[IndexEntry] =
    ks.zipWithIndex.map { case (k, i) =>
      val (eq, sort) = toLookupKey(defn, k)
      IndexEntry(eq, sort, tsBase + i, Rid(ZoneId.Groomed, blockId, i), Array(k))
    }

  final case class BenchIndex(
      index: UmziIndex,
      cache: CacheManager,
      ingestedKeys: Array[Long])

  /** Build an index of exactly `nRuns` runs of `entriesPerRun` entries each
    * (no merging: high K), mimicking successive grooms. All runs end up in
    * the SSD cache, matching the paper's §8.3 setup.
    */
  def buildIndex(
      defn: IndexDef,
      nRuns: Int,
      entriesPerRun: Int,
      sequential: Boolean,
      seed: Long): BenchIndex = {
    val cache = new CacheManager(TierConfig())
    val index = new UmziIndex(UmziConfig(defn, maxRunsPerLevel = 1_000_000,
      sizeRatio = 4, postGroomedStartLevel = 6, maxLevel = 9), cache)
    val all = keys(nRuns * entriesPerRun, sequential, seed)
    var b = 0
    while (b < nRuns) {
      val slice = java.util.Arrays.copyOfRange(all, b * entriesPerRun, (b + 1) * entriesPerRun)
      index.addGroomedRun(entries(defn, slice, b.toLong * entriesPerRun, b),
        BlockRange(b, b))
      b += 1
    }
    // builds churn the heap; collect now so query timings start clean
    System.gc()
    BenchIndex(index, cache, all)
  }

  /** Sample a lookup batch from the ingested keys: sequential batches take a
    * consecutive slice, random batches sample uniformly (paper §8.3).
    */
  def lookupBatch(ingested: Array[Long], batchSize: Int, sequential: Boolean,
      rng: Random): Array[Long] =
    if (sequential) {
      val start = rng.nextInt(math.max(1, ingested.length - batchSize))
      Array.tabulate(batchSize)(i => ingested((start + i) % ingested.length))
    } else {
      Array.fill(batchSize)(ingested(rng.nextInt(ingested.length)))
    }
}
