package repro.storage

import java.nio.file.{Files, Path, StandardCopyOption}
import java.util.Properties
import repro.core.{IndexDef, IndexRun, RunCodec}
import scala.jdk.CollectionConverters._
import scala.util.Using

/** Local-filesystem stand-in for distributed shared storage (HDFS / S3 /
  * GlusterFS in the paper).
  *
  * Faithfully restricted to what those systems allow: whole-file append-only
  * writes, no in-place updates, delete, and list. Runs are one file each
  * (`run-<id>.umzi`). Index checkpoint state (the evolve watermark and
  * IndexedPSN, paper §5.5) lives in a small Properties file. Every file,
  * here and in the shard's zones, reaches storage through
  * [[SharedStorage.writeAtomically]].
  */
final class SharedStorage(val root: Path) {
  Files.createDirectories(runsDir)

  private def runsDir: Path = root.resolve("index-runs")
  private[repro] def runFile(id: Long): Path = runsDir.resolve(s"run-$id.umzi")
  private def checkpointFile: Path = root.resolve("index-checkpoint")

  /** Persist a run as a new immutable file (append-only semantics). */
  def writeRun(run: IndexRun): Unit =
    SharedStorage.writeAtomically(runFile(run.id))(RunCodec.write(run, _))

  /** The persisted run `id`; a torn or corrupt file throws an IOException. */
  def readRun(defn: IndexDef, id: Long): IndexRun = RunCodec.read(defn, runFile(id))

  def deleteRun(id: Long): Boolean = Files.deleteIfExists(runFile(id))

  def listRunIds(): Seq[Long] = Using.resource(Files.list(runsDir))(_.iterator().asScala
    .map(_.getFileName.toString)
    .collect { case s if s.startsWith("run-") && s.endsWith(".umzi") =>
      s.stripPrefix("run-").stripSuffix(".umzi").toLong
    }
    .toSeq.sorted)

  /** Load every persisted run (recovery, paper §5.5); throws if any run
    * file is torn or corrupt.
    */
  def listRuns(defn: IndexDef): Seq[IndexRun] = listRunIds().map(readRun(defn, _))

  /** Persist (watermark, indexedPSN) after each evolve (paper §5.5). */
  def writeCheckpoint(maxCoveredGroomedId: Long, indexedPsn: Long): Unit =
    SharedStorage.writeProperties(checkpointFile,
      "watermark" -> maxCoveredGroomedId, "indexedPsn" -> indexedPsn)

  /** (watermark, indexedPSN), or (-1, -1) if never checkpointed. */
  def readCheckpoint(): (Long, Long) = SharedStorage.readProperties(checkpointFile)
    .fold((-1L, -1L))(p => (p("watermark").toLong, p("indexedPsn").toLong))
}

object SharedStorage {

  /** `write` fills a temporary file next to `target` (dot-prefixed, `.tmp`
    * suffix, so no listing matches it), which is then renamed over `target`;
    * if `write` throws, `target` is as it was. The temporary never remains.
    */
  def writeAtomically(target: Path)(write: Path => Unit): Unit = {
    val tmp = Files.createTempFile(target.getParent, s".${target.getFileName}.", ".tmp")
    try {
      write(tmp)
      Files.move(tmp, target, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    } finally Files.deleteIfExists(tmp)
  }

  /** Atomically write `entries` as the `java.util.Properties` file `target`. */
  def writeProperties(target: Path, entries: (String, Any)*): Unit =
    writeAtomically(target) { tmp =>
      val p = new Properties()
      entries.foreach { case (k, v) => p.setProperty(k, v.toString) }
      val out = Files.newOutputStream(tmp)
      try p.store(out, null)
      finally out.close()
    }

  /** The `java.util.Properties` file `file` as a lookup that fails naming
    * the file and the key when the key is missing; None if there is no file.
    */
  def readProperties(file: Path): Option[String => String] = Option.when(Files.exists(file)) {
    val p = new Properties()
    val in = Files.newInputStream(file)
    try p.load(in)
    finally in.close()
    key => Option(p.getProperty(key))
      .getOrElse(throw new IllegalStateException(s"$file has no '$key' entry"))
  }
}
