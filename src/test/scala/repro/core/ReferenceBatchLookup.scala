package repro.core

import scala.collection.mutable.ArrayBuffer

/** Batched point lookups as one `IndexRun.pointLookup` per key, kept as the
  * reference that `QueryExec.batchLookupIn` must equal in its answers and in
  * the order it touches blocks: the keys in stable order of their encoded
  * bytes, runs newest first, each key probed in every run its synopsis
  * admits until it is found.
  */
object ReferenceBatchLookup {

  def lookup(
      runs: Seq[IndexRun],
      defn: IndexDef,
      keys: Array[(Array[Long], Array[Long])],
      queryTS: Long,
      ctx: ReadContext): Array[Option[IndexEntry]] = {
    val encoded = keys.map { case (eq, sort) => QueryExec.encodeKey(defn, eq, sort) }
    val order = keys.indices.sortBy(i => encoded(i)._2)(
      Ordering.comparatorToOrdering((a: Array[Byte], b: Array[Byte]) => java.util.Arrays.compareUnsigned(a, b)))
    val found = Array.fill[Option[IndexEntry]](keys.length)(None)
    runs.foreach { run =>
      order.foreach { i =>
        if (found(i).isEmpty && QueryExec.runMayMatch(run, keys(i)._1, keys(i)._2, keys(i)._2))
          found(i) = run.pointLookup(encoded(i)._1, encoded(i)._2, queryTS, ctx)
      }
    }
    found
  }

  /** A read context that appends every first block touch, as (run id,
    * block), to `log`.
    */
  def recorder(log: ArrayBuffer[(Long, Int)]): ReadContext = new ReadContext(new StorageHooks {
    override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = ()
    override def onRunsDetached(runIds: Seq[Long]): Unit = ()
    override def onSharedDeleted(runIds: Seq[Long]): Unit = ()
    override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = log += ((run.id, blockIdx))
  })
}
