package repro.core

/** Callbacks from the core index into the storage substrate.
  *
  * The core index structure is storage-agnostic; the `repro.storage` package
  * plugs in the multi-tier hierarchy (shared-storage persistence, SSD cache
  * with purge/load, simulated access latencies) through this interface.
  *
  * Detach vs shared-delete are separate because of non-persisted levels
  * (paper §6.1): a persisted run merged into a non-persisted level leaves the
  * run list (detached, cache freed) but its shared-storage file must survive
  * as recovery lineage until a descendant run reaches a persisted level.
  */
trait StorageHooks {

  /** A new run was created (by build, merge, or evolve).
    *
    * @param persisted whether the run's level is configured as persisted —
    *                  persisted runs are written to shared storage, while
    *                  non-persisted runs live only in memory/SSD (paper §6.1)
    */
  def onRunCreated(run: IndexRun, persisted: Boolean): Unit

  /** Runs left the run list (merged or evolved away): release cached copies. */
  def onRunsDetached(runIds: Seq[Long]): Unit

  /** These runs' shared-storage files are no longer needed for recovery. */
  def onSharedDeleted(runIds: Seq[Long]): Unit

  /** A query touched data block `blockIdx` of `run` for the first time in
    * its batch; the storage layer charges the appropriate tier latency.
    */
  def onBlockAccess(run: IndexRun, blockIdx: Int): Unit
}

object StorageHooks {
  /** No-op hooks for pure in-memory unit tests. */
  val Noop: StorageHooks = new StorageHooks {
    override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = ()
    override def onRunsDetached(runIds: Seq[Long]): Unit = ()
    override def onSharedDeleted(runIds: Seq[Long]): Unit = ()
    override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = ()
  }
}

/** Per-query-batch read context: deduplicates block touches so a block
  * fetched for one key in a batch costs nothing for later keys (paper §8.3.2
  * — "once an index block is fetched into memory for the lookup of a
  * particular key, no additional I/O is required ... for other keys").
  *
  * Each run gets one bit per data block, found through the last run touched
  * (a batch probes one run at a time) and, on a run switch, a map keyed by
  * run id, so run objects that share an id share their bits. A touch
  * allocates nothing.
  */
final class ReadContext(hooks: StorageHooks) {
  private val bitsByRunId = scala.collection.mutable.LongMap.empty[Array[Long]]
  private var lastRun: IndexRun = _
  private var lastBits: Array[Long] = _
  private var touched = 0

  def touch(run: IndexRun, blockIdx: Int): Unit = {
    if (run ne lastRun) { lastBits = bitsOf(run); lastRun = run }
    val word = blockIdx >>> 6
    val bit = 1L << blockIdx // the shift uses the low 6 bits of blockIdx
    if ((lastBits(word) & bit) == 0) {
      lastBits(word) |= bit
      touched += 1
      hooks.onBlockAccess(run, blockIdx)
    }
  }

  private def bitsOf(run: IndexRun): Array[Long] = {
    var bits = bitsByRunId.getOrNull(run.id)
    if (bits == null) {
      bits = new Array[Long]((run.numDataBlocks + 63) >>> 6)
      bitsByRunId.update(run.id, bits)
    }
    bits
  }

  /** Number of distinct (run, block) pairs touched so far. */
  def blocksTouched: Int = touched
}
