package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import java.nio.file.{Files, Path}
import repro.core._
import repro.core.Fixtures._
import repro.wildfire.{BlockMeta, PostGroomer, ShardFiles}
import scala.jdk.CollectionConverters._

/** Append-only shared-storage semantics for index runs (paper §6, §5.5). */
class SharedStorageSpec extends AnyFunSuite with TempDirs {

  private def storage() = new SharedStorage(tempDir("umzi-shared"))

  private def mkRun(id: Long, lo: Long = 0, hi: Long = 0): IndexRun =
    buildRun(I1, (0 until 16).map(i => entry(i % 4, i, i)), id = id,
      range = BlockRange(lo, hi))

  test("write/read roundtrip") {
    val s = storage()
    val run = mkRun(7, 2, 5)
    s.writeRun(run)
    val back = s.readRun(I1, 7)
    assert(back.id == 7 && back.blockRange == BlockRange(2, 5) && back.count == 16)
    assert(back.data.sameElements(run.data))
  }

  test("listRunIds is sorted and complete") {
    val s = storage()
    Seq(5L, 1L, 9L).foreach(id => s.writeRun(mkRun(id)))
    assert(s.listRunIds() == Seq(1L, 5L, 9L))
  }

  test("deleteRun removes the file") {
    val s = storage()
    s.writeRun(mkRun(3))
    assert(s.deleteRun(3))
    assert(s.listRunIds().isEmpty)
    assert(!s.deleteRun(3), "second delete is a no-op")
  }

  test("rewriting the same run id replaces atomically") {
    val s = storage()
    s.writeRun(mkRun(1, 0, 0))
    s.writeRun(mkRun(1, 0, 3))
    assert(s.readRun(I1, 1).blockRange == BlockRange(0, 3))
    assert(s.listRunIds() == Seq(1L))
  }

  test("listRuns deserializes everything") {
    val s = storage()
    (0L until 4L).foreach(id => s.writeRun(mkRun(id, id, id)))
    val runs = s.listRuns(I1)
    assert(runs.map(_.id).sorted == Seq(0L, 1L, 2L, 3L))
    assert(runs.forall(_.count == 16))
  }

  test("checkpoint survives instance restarts") {
    val dir = tempDir("umzi-shared2")
    new SharedStorage(dir).writeCheckpoint(9L, 2L)
    assert(new SharedStorage(dir).readCheckpoint() == ((9L, 2L)))
  }

  private def listing(dir: Path): Seq[String] =
    Files.list(dir).iterator().asScala.map(_.getFileName.toString).toSeq.sorted

  test("a write that throws leaves no temporary file and the target as it was") {
    val dir = tempDir("umzi-atomic")
    def failingWrite(target: Path): Unit = {
      val e = intercept[IllegalStateException] {
        SharedStorage.writeAtomically(target) { tmp =>
          Files.write(tmp, "half a file".getBytes("UTF-8"))
          throw new IllegalStateException("disk gone")
        }
      }
      assert(e.getMessage == "disk gone")
    }
    failingWrite(dir.resolve("absent"))
    assert(listing(dir).isEmpty)

    val present = dir.resolve("present")
    SharedStorage.writeAtomically(present)(Files.write(_, "whole".getBytes("UTF-8")))
    failingWrite(present)
    assert(listing(dir) == Seq("present"))
    assert(new String(Files.readAllBytes(present), "UTF-8") == "whole")
  }

  /** Drop `key` from the Properties file `file`; `read` then fails naming
    * the file and the key.
    */
  private def assertNamesMissingKey(file: Path, key: String)(read: => Any): Unit = {
    val lines = Files.readAllLines(file).asScala
    assert(lines.exists(_.startsWith(s"$key=")), lines)
    Files.write(file, lines.filterNot(_.startsWith(s"$key=")).asJava)
    val e = intercept[IllegalStateException](read)
    assert(e.getMessage.contains(file.toString) && e.getMessage.contains(s"'$key'"), e.getMessage)
  }

  test("a sidecar, post-groom state or checkpoint without a key fails naming the file and the key") {
    val dir = tempDir("umzi-props")
    val meta = BlockMeta("groomed", 3, ShardFiles.blockFile(dir, 3).toString, 10, 0, 1, 5, 9)
    meta.write(dir)
    assert(BlockMeta.read(ShardFiles.metaFile(dir, 3)) == meta)
    assertNamesMissingKey(ShardFiles.metaFile(dir, 3), "maxMsg")(BlockMeta.read(ShardFiles.metaFile(dir, 3)))

    PostGroomer.writeState(dir, 2, 7, 1_000_004)
    assert(PostGroomer.readState(dir) == ((2L, 7L, 1_000_004L)))
    assertNamesMissingKey(ShardFiles.stateFile(dir), "coveredHi")(PostGroomer.readState(dir))

    val s = new SharedStorage(dir)
    s.writeCheckpoint(7, 2)
    assertNamesMissingKey(dir.resolve("index-checkpoint"), "indexedPsn")(s.readCheckpoint())
  }

  test("listing runs and block sidecars closes the directory handle") {
    val s = storage()
    s.writeRun(mkRun(1))
    val dir = tempDir("umzi-listing")
    BlockMeta("groomed", 0, ShardFiles.blockFile(dir, 0).toString, 1, 0, 0, 0, 0).write(dir)
    val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.UnixOperatingSystemMXBean]
    val before = os.getOpenFileDescriptorCount
    (0 until 500).foreach { _ =>
      assert(s.listRunIds() == Seq(1L))
      assert(BlockMeta.listIn(dir).map(_.blockId) == Seq(0L))
    }
    val grown = os.getOpenFileDescriptorCount - before
    assert(grown < 20, s"$grown more open file descriptors after 500 listings")
  }
}
