package repro.bench

import repro.storage.CacheManager

/** Timing and reporting helpers for the figure-table benchmarks.
  *
  * Reported cost = wall-clock nanos + simulated storage-tier nanos (see
  * DESIGN.md §2): the CPU work really runs, while SSD/shared-storage
  * latencies are charged from the cost model so the tier-gap shapes of the
  * paper's figures survive a laptop-scale build.
  */
object BenchUtil {

  /** Wall-clock time of `body` in nanos, plus its result. */
  def timed[A](body: => A): (Long, A) = {
    val t0 = System.nanoTime()
    val r = body
    (System.nanoTime() - t0, r)
  }

  /** Wall + this thread's simulated I/O nanos for `body`. */
  def cost[A](cache: CacheManager)(body: => A): (Long, A) = {
    cache.resetThreadSimulatedNanos()
    val t0 = System.nanoTime()
    val r = body
    val wall = System.nanoTime() - t0
    (wall + cache.threadSimulatedNanos, r)
  }

  def fmt(v: Double): String =
    if (v >= 1000) f"$v%.0f"
    else if (v >= 10) f"$v%.1f"
    else f"$v%.3f"

  /** Print an aligned table; rows of (label, values per column). */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"== $title ==")
    println(line(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(line(r)))
    println()
  }
}
