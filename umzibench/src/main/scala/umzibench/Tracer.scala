package umzibench

import java.io.{BufferedWriter, FileWriter}
import java.nio.file.Path
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is (id, parent, operation id, "layer:name", start, end, thread).
  * Spans opened with [[span]] nest through a per-thread stack; spans whose
  * bounds are only known afterwards (the storage-hook wrapper's build, merge
  * and persist intervals) are added with [[record]] as children of the
  * innermost open span. Disabled, every call runs its body directly.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer._

  private val nextId = new AtomicLong(1)
  private val buffers = new ConcurrentLinkedQueue[ThreadBuf]()
  private val local = ThreadLocal.withInitial[ThreadBuf](() => {
    val b = new ThreadBuf(Thread.currentThread().getName)
    buffers.add(b)
    b
  })

  /** A fresh operation id (spans of one request share it). */
  def newOp(): Long = nextId.getAndIncrement()

  def span[A](name: String, op: Long = 0L)(body: => A): A =
    if (!enabled) body
    else {
      val b = local.get()
      val id = nextId.getAndIncrement()
      val parent = if (b.depth > 0) b.ids(b.depth - 1) else 0L
      val opId = if (op != 0L) op else if (b.depth > 0) b.ops(b.depth - 1) else id
      b.push(id, opId)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        b.pop()
        b.spans += Span(id, parent, opId, name, t0, t1, b.thread)
      }
    }

  /** Add a completed span as a child of the innermost open span. */
  def record(name: String, start: Long, end: Long): Unit =
    if (enabled) {
      val b = local.get()
      val parent = if (b.depth > 0) b.ids(b.depth - 1) else 0L
      val opId = if (b.depth > 0) b.ops(b.depth - 1) else 0L
      b.spans += Span(nextId.getAndIncrement(), parent, opId, name, start, end, b.thread)
    }

  def spans: Seq[Span] = {
    val out = mutable.ArrayBuffer.empty[Span]
    buffers.forEach(b => out ++= b.spans)
    out.toSeq
  }

  /** Self time per layer in nanos: each span's duration minus the time its
    * direct children cover (children never overlap within one thread).
    */
  def selfNanosByLayer(): Map[String, Long] = {
    val all = spans
    val childNanos = mutable.HashMap.empty[Long, Long]
    all.foreach(s => if (s.parent != 0L) childNanos(s.parent) = childNanos.getOrElse(s.parent, 0L) + s.nanos)
    val out = mutable.HashMap.empty[String, Long]
    all.foreach { s =>
      val self = math.max(0L, s.nanos - childNanos.getOrElse(s.id, 0L))
      out(s.layer) = out.getOrElse(s.layer, 0L) + self
    }
    out.toMap
  }

  def write(file: Path): Unit = {
    val w = new BufferedWriter(new FileWriter(file.toFile))
    try {
      w.write("id\tparent\top\tname\tstart_ns\tend_ns\tthread\n")
      spans.sortBy(_.start).foreach { s =>
        w.write(s"${s.id}\t${s.parent}\t${s.op}\t${s.name}\t${s.start}\t${s.end}\t${s.thread}\n")
      }
    } finally w.close()
  }
}

object Tracer {
  /** The disabled tracer used by untraced runs and warm-ups. */
  val Off = new Tracer(false)

  final case class Span(id: Long, parent: Long, op: Long, name: String, start: Long, end: Long,
      thread: String) {
    def nanos: Long = end - start
    def layer: String = name.takeWhile(_ != ':')
  }

  private final class ThreadBuf(val thread: String) {
    val spans = mutable.ArrayBuffer.empty[Span]
    var ids = new Array[Long](16)
    var ops = new Array[Long](16)
    var depth = 0
    def push(id: Long, op: Long): Unit = {
      if (depth == ids.length) {
        ids = java.util.Arrays.copyOf(ids, depth * 2)
        ops = java.util.Arrays.copyOf(ops, depth * 2)
      }
      ids(depth) = id; ops(depth) = op; depth += 1
    }
    def pop(): Unit = depth -= 1
  }

  /** Layers whose self time the traced run reports. */
  val Layers: Seq[String] = Seq("core.index", "core.build", "core.merge", "core.evolve",
    "core.query", "core.reconcile", "storage.cache", "storage.persist", "storage.recover",
    "wildfire", "dsv2")
}
