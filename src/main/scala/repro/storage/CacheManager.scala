package repro.storage

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicLong, AtomicLongArray, LongAdder}
import repro.core.{IndexRun, StorageHooks}
import scala.jdk.CollectionConverters._

/** Multi-tier cache manager (paper §6.2) implementing the core index's
  * storage hooks.
  *
  * Responsibilities:
  *  - persist runs of persisted levels to shared storage, keep runs of
  *    non-persisted levels memory-resident only (§6.1);
  *  - maintain the SSD cache: a *current cached level* separates cached from
  *    purged runs; when the SSD is nearly full the oldest (highest-level)
  *    runs are purged — data blocks dropped, header retained — and when
  *    space frees up, recent runs are re-loaded in the reverse direction;
  *  - write-through: a newly created run below the current cached level goes
  *    straight into the SSD cache;
  *  - charge every query block access with the latency of the tier that
  *    serves it (memory, SSD, or shared storage + fault into SSD).
  *
  * The query-side access path is lock-free (concurrent map + atomic block
  * bitmaps) — like the index itself, readers must never convoy on a monitor
  * (paper §5.1); only maintenance operations serialize on a short lock.
  *
  * An explicit *manual purge level* supports the paper's Figure 14
  * experiment, where the fraction of purged runs is forced; blocks of
  * manually purged runs faulted in by a query are released after the batch
  * (paper §7), so every batch pays the shared-storage penalty again.
  */
final class CacheManager(
    val tiers: TierConfig = TierConfig(),
    val shared: Option[SharedStorage] = None) extends StorageHooks {

  val stats: IoStats = new IoStats

  /** Lock-free per-run cache state: one atomic bit per data block. */
  private final class RunState(val run: IndexRun, val persisted: Boolean) {
    private val words = new AtomicLongArray(math.max(1, (run.numDataBlocks + 63) / 64))

    def isCached(i: Int): Boolean = (words.get(i >> 6) & (1L << (i & 63))) != 0

    /** Set bit i; true if this call newly cached the block. */
    def setCached(i: Int): Boolean = {
      val w = i >> 6; val bit = 1L << (i & 63)
      var cur = words.get(w)
      while ((cur & bit) == 0) {
        if (words.compareAndSet(w, cur, cur | bit)) return true
        cur = words.get(w)
      }
      false
    }

    /** Drop every cached block; returns how many were cached. */
    def clearAll(): Int = {
      var cleared = 0
      var w = 0
      while (w < words.length()) {
        cleared += java.lang.Long.bitCount(words.getAndSet(w, 0L))
        w += 1
      }
      cleared
    }

    /** Cache every block; returns how many were newly cached. */
    def setAll(): Int = {
      var added = 0
      var i = run.numDataBlocks - 1
      // full words first, tail bits via setCached for simplicity
      while (i >= 0) { if (setCached(i)) added += 1; i -= 1 }
      added
    }

    def cachedBlocks: Int = {
      var n = 0
      var w = 0
      while (w < words.length()) { n += java.lang.Long.bitCount(words.get(w)); w += 1 }
      n
    }
  }

  private val runs = new ConcurrentHashMap[Long, RunState]()
  private val ssdBytesUsed = new AtomicLong(0L)

  /** Serializes cache maintenance (create/purge/load); never taken by the
    * query access path.
    */
  private val maintenance = new Object

  /** Runs at levels >= this are forcibly purged and stay purged; MaxValue
    * disables manual mode (everything eligible for caching).
    */
  @volatile private var manualPurgeLevel: Int = Int.MaxValue

  /** Shared-storage block reads issued by background load/persist work;
    * tracked separately so they do not pollute query-latency accounting.
    */
  val backgroundSharedReads = new LongAdder

  /** Per-thread accumulator of simulated I/O nanos, so concurrent readers
    * can attribute storage cost to their own query batches (bench harness).
    */
  private val threadNanos: ThreadLocal[Array[Long]] =
    ThreadLocal.withInitial(() => new Array[Long](1))

  def resetThreadSimulatedNanos(): Unit = threadNanos.get()(0) = 0L

  def threadSimulatedNanos: Long = threadNanos.get()(0)

  private def charge(tier: Int, nanos: Long): Unit = {
    tier match {
      case 0 => stats.chargeMem(nanos)
      case 1 => stats.chargeSsd(nanos)
      case _ => stats.chargeShared(nanos)
    }
    threadNanos.get()(0) += nanos
  }

  private def blockBytes(run: IndexRun): Long =
    run.entriesPerBlock.toLong * run.defn.entryWidth

  // ------------------------------------------------------------- hook impl

  override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = maintenance.synchronized {
    val st = new RunState(run, persisted)
    runs.put(run.id, st)
    if (persisted) shared.foreach(_.writeRun(run))
    // Write-through (paper §6.2): cache the new run unless its level is
    // manually purged or the SSD has no budget for it.
    if (persisted && run.level < manualPurgeLevel)
      ssdBytesUsed.addAndGet(st.setAll().toLong * blockBytes(run))
    evictIfOverCapacityLocked()
  }

  override def onRunsDetached(runIds: Seq[Long]): Unit = maintenance.synchronized {
    runIds.foreach { id =>
      val st = runs.remove(id)
      if (st != null) ssdBytesUsed.addAndGet(-st.clearAll().toLong * blockBytes(st.run))
    }
  }

  override def onSharedDeleted(runIds: Seq[Long]): Unit =
    shared.foreach(s => runIds.foreach(s.deleteRun))

  override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = {
    val st = runs.get(run.id)
    if (st == null) {
      // The run left the list while an old query snapshot still holds it;
      // its blocks were cache-resident until detach, so charge SSD cost.
      charge(1, tiers.ssdReadNanosPerBlock)
    } else if (!st.persisted) {
      // Non-persisted levels are memory-resident (paper §6.1).
      charge(0, tiers.memReadNanosPerBlock)
    } else if (st.isCached(blockIdx)) {
      charge(1, tiers.ssdReadNanosPerBlock)
    } else {
      // Fault the block from shared storage into the SSD cache (block-basis
      // transfer, paper §7). Blocks of manually purged runs are released
      // after the batch, so they are not retained.
      charge(2, tiers.sharedReadNanosPerBlock)
      if (run.level < manualPurgeLevel && st.setCached(blockIdx))
        ssdBytesUsed.addAndGet(blockBytes(run))
    }
  }

  // --------------------------------------------------------- cache control

  /** Force runs at `level` and above out of the SSD cache and keep them out
    * (Figure 14 experiment control). `Int.MaxValue` restores auto mode.
    */
  def setManualPurgeLevel(level: Int): Unit = maintenance.synchronized {
    manualPurgeLevel = level
    runs.values.asScala.foreach { st =>
      if (st.persisted && st.run.level >= level) purgeRunLocked(st)
    }
  }

  /** Purge every cached run (Figure 14 "all"). */
  def purgeAll(): Unit = setManualPurgeLevel(0)

  /** Drop a run's data blocks from the SSD cache, keeping only the header
    * block for queries to locate data blocks (paper §6.2).
    */
  def purgeRun(runId: Long): Unit = maintenance.synchronized {
    val st = runs.get(runId)
    if (st != null) purgeRunLocked(st)
  }

  private def purgeRunLocked(st: RunState): Unit =
    ssdBytesUsed.addAndGet(-st.clearAll().toLong * blockBytes(st.run))

  /** Background cache maintenance (paper §6.2): purge the oldest runs —
    * highest level first — while over the SSD budget; when spacious, load
    * recent purged runs back from shared storage in the reverse direction.
    * The *current cached level* is derived as the highest level whose runs
    * are all cached.
    */
  def maintainCache(): Unit = maintenance.synchronized {
    if (tiers.ssdCapacityBytes <= 0) return
    evictIfOverCapacityLocked()
    // load: lowest level first, newest run first, while clearly under budget
    if (ssdBytesUsed.get() < (tiers.ssdCapacityBytes * 8) / 10) {
      val loadOrder = runs.values.asScala.toSeq
        .filter(st => st.persisted && st.run.level < manualPurgeLevel &&
          st.cachedBlocks < st.run.numDataBlocks)
        .sortBy(st => (st.run.level, -st.run.blockRange.hi))
      var j = 0
      var budget = (tiers.ssdCapacityBytes * 8) / 10 - ssdBytesUsed.get()
      while (j < loadOrder.size && budget > 0) {
        val st = loadOrder(j)
        val cost = (st.run.numDataBlocks - st.cachedBlocks).toLong * blockBytes(st.run)
        if (cost <= budget) {
          val added = st.setAll()
          backgroundSharedReads.add(added)
          ssdBytesUsed.addAndGet(added.toLong * blockBytes(st.run))
          budget -= cost
        }
        j += 1
      }
    }
  }

  private def evictIfOverCapacityLocked(): Unit =
    if (tiers.ssdCapacityBytes > 0 && ssdBytesUsed.get() > tiers.ssdCapacityBytes) {
      // purge: highest level first, oldest run (smallest end block ID) first
      val purgeOrder = runs.values.asScala.toSeq
        .filter(st => st.persisted && st.cachedBlocks > 0)
        .sortBy(st => (-st.run.level, st.run.blockRange.hi))
      var i = 0
      while (ssdBytesUsed.get() > tiers.ssdCapacityBytes && i < purgeOrder.size) {
        purgeRunLocked(purgeOrder(i))
        i += 1
      }
    }

  /** Highest level L such that every persisted run at levels <= L is fully
    * cached; -1 if even level 0 has purged runs (paper Fig 7).
    */
  def currentCachedLevel: Int = {
    val byLevel = runs.values.asScala.filter(_.persisted).toSeq.groupBy(_.run.level)
    if (byLevel.isEmpty) return Int.MaxValue
    val maxLevel = byLevel.keys.max
    var level = -1
    var l = 0
    var broken = false
    while (l <= maxLevel && !broken) {
      val all = byLevel.getOrElse(l, Nil)
      if (all.forall(st => st.cachedBlocks == st.run.numDataBlocks)) level = l
      else broken = true
      l += 1
    }
    level
  }

  def ssdBytes: Long = ssdBytesUsed.get()
}
