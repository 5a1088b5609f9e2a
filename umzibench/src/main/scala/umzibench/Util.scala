package umzibench

import java.util.Arrays
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Growable buffer of long samples (nanos, counts); one per thread. */
final class Samples(initial: Int = 256) {
  private var a = new Array[Long](initial)
  private var n = 0

  def add(v: Long): Unit = {
    if (n == a.length) a = Arrays.copyOf(a, n * 2)
    a(n) = v
    n += 1
  }

  def addAll(o: Samples): Unit = { var i = 0; while (i < o.n) { add(o.a(i)); i += 1 } }
  def size: Int = n
  def sum: Long = { var s = 0L; var i = 0; while (i < n) { s += a(i); i += 1 }; s }
  def mean: Double = if (n == 0) 0.0 else sum.toDouble / n
  def max: Long = if (n == 0) 0L else { var m = a(0); var i = 1; while (i < n) { m = math.max(m, a(i)); i += 1 }; m }

  /** Quantile by linear interpolation between closest ranks; 0 when empty. */
  def quantile(q: Double): Double = {
    if (n == 0) return 0.0
    val s = Arrays.copyOf(a, n)
    Arrays.sort(s)
    val pos = q * (n - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(n - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def p50: Double = quantile(0.5)
}

/** Operation accounting behind `attempted` / `failed` and ops_failed_frac. */
final class Checks {
  val attempted = new AtomicLong
  val failed = new AtomicLong
  private val firstFailures = new ConcurrentLinkedQueue[String]()

  /** Count one operation; `ok` false records it as failed with a reason. */
  def op(ok: Boolean, why: => String): Unit = {
    attempted.incrementAndGet()
    if (!ok) {
      if (failed.incrementAndGet() <= 10) firstFailures.add(why)
    }
  }

  /** Run `body`; an exception counts as one failed operation. A success
    * counts nothing: the caller checks the answer with [[op]].
    */
  def guarded[A](what: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case e: Exception =>
        op(ok = false, s"$what threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }

  /** Run `body` as one operation that succeeds unless it throws. */
  def task[A](what: String)(body: => A): Option[A] = {
    val r = guarded(what)(body)
    if (r.isDefined) attempted.incrementAndGet()
    r
  }

  def failures: Seq[String] = {
    val b = mutable.ArrayBuffer.empty[String]
    firstFailures.forEach(s => b += s)
    b.toSeq
  }
}

/** One reported metric. */
final case class Metric(name: String, value: Double, unit: String, note: String = "")

/** Metrics a workload produced, in print order. */
final class Report {
  val endToEnd = mutable.ArrayBuffer.empty[Metric]
  /** End-to-end numbers printed but not part of the JSON result. */
  val extra = mutable.ArrayBuffer.empty[Metric]
  val layers = mutable.ArrayBuffer.empty[Metric]
  val info = mutable.LinkedHashMap.empty[String, String]

  def e2e(name: String, value: Double, unit: String, note: String = ""): Unit =
    endToEnd += Metric(name, value, unit, note)
  def more(name: String, value: Double, unit: String, note: String = ""): Unit =
    extra += Metric(name, value, unit, note)
  def layer(name: String, value: Double, unit: String): Unit =
    layers += Metric(name, value, unit)
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a finite number")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Open-addressing map from a non-negative long key to a dense slot number
  * (0, 1, 2, ... in insertion order). Single writer.
  */
final class SlotMap(capacityHint: Int) {
  private val cap = Integer.highestOneBit(math.max(16, capacityHint * 2 - 1)) << 1
  private val mask = cap - 1
  private val keys = Array.fill(cap)(-1L)
  private val slots = new Array[Int](cap)
  private var n = 0

  def size: Int = n

  private def home(k: Long): Int = (Mix.hash(k) & mask).toInt

  /** Slot of `k`, or -1. */
  def get(k: Long): Int = {
    var i = home(k)
    while (keys(i) != -1L) {
      if (keys(i) == k) return slots(i)
      i = (i + 1) & mask
    }
    -1
  }

  /** Slot of `k`, inserting it with the next free slot number if absent. */
  def getOrInsert(k: Long): Int = {
    require(k >= 0, "keys must be non-negative")
    var i = home(k)
    while (keys(i) != -1L) {
      if (keys(i) == k) return slots(i)
      i = (i + 1) & mask
    }
    require(n < cap / 2, "SlotMap over capacity")
    keys(i) = k
    slots(i) = n
    n += 1
    n - 1
  }
}

object Mix {
  /** SplitMix64 finalizer. */
  def hash(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Primary key (deviceId < 2^23, msgNum < 2^40) packed into one long;
    * packed order equals (deviceId, msgNum) order.
    */
  def pack(device: Long, msg: Long): Long = (device << 40) | msg
  def device(k: Long): Long = k >>> 40
  def msg(k: Long): Long = k & ((1L << 40) - 1)
}
