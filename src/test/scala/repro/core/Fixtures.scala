package repro.core

import java.nio.file.Files
import repro.storage.SharedStorage

/** Shared helpers for core index tests. */
object Fixtures {

  /** I1-shaped definition: eq0 equality, sort0 sort, inc0 included. */
  val I1: IndexDef = IndexDef.I1

  def entry(
      eq: Long,
      sort: Long,
      ts: Long,
      zone: ZoneId = ZoneId.Groomed,
      block: Long = 0L,
      off: Int = 0,
      value: Long = 0L): IndexEntry =
    IndexEntry(Array(eq), Array(sort), ts, Rid(zone, block, off), Array(value))

  def buildRun(
      defn: IndexDef,
      entries: Seq[IndexEntry],
      id: Long = 0L,
      zone: ZoneId = ZoneId.Groomed,
      level: Int = 0,
      range: BlockRange = BlockRange(0, 0),
      entriesPerBlock: Int = 8): IndexRun =
    IndexRun.build(defn, id, zone, level, range, entries.toArray, entriesPerBlock)

  /** `run` written to a fresh shared storage and read back from its file. */
  def persisted(run: IndexRun): IndexRun = {
    val storage = new SharedStorage(Files.createTempDirectory("umzi-run"))
    storage.writeRun(run)
    storage.readRun(run.defn, run.id)
  }

  def ctx(): ReadContext = new ReadContext(StorageHooks.Noop)
}
