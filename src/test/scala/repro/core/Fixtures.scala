package repro.core

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.scalatest.{Outcome, TestSuite, TestSuiteMixin}
import repro.storage.SharedStorage
import scala.collection.mutable.ArrayBuffer

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
    val dir = Files.createTempDirectory("umzi-run")
    try {
      val storage = new SharedStorage(dir)
      storage.writeRun(run)
      storage.readRun(run.defn, run.id)
    } finally deleteTree(dir)
  }

  /** Delete `root` and everything under it, if it exists. */
  def deleteTree(root: Path): Unit = if (Files.exists(root)) {
    val paths = Files.walk(root)
    try paths.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
    finally paths.close()
  }

  /** For suites that keep files: [[tempDir]] makes a directory that is
    * deleted, with everything under it, when the test that made it ends,
    * whether it passes or not.
    */
  trait TempDirs extends TestSuiteMixin { this: TestSuite =>
    private val made = ArrayBuffer.empty[Path]

    def tempDir(prefix: String): Path = made.synchronized {
      val dir = Files.createTempDirectory(prefix)
      made += dir
      dir
    }

    abstract override def withFixture(test: NoArgTest): Outcome =
      try super.withFixture(test)
      finally made.synchronized { made.foreach(deleteTree); made.clear() }
  }

  def ctx(): ReadContext = new ReadContext(StorageHooks.Noop)
}
