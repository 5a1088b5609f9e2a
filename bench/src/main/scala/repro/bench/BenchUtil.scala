package repro.bench

import repro.core.{QueryExec, UmziIndex}
import repro.storage.CacheManager

/** One measured figure cell, kept as three separate quantities (DESIGN.md
  * §2): the wall-clock nanos the code really spent, the storage-tier nanos
  * the cost model charged this thread (SSD and shared-storage block reads),
  * and the distinct index blocks touched. The sum of the first two is never
  * formed: a figure asserts on the quantity its claim is about.
  */
final case class Cell(wallNs: Double, simNs: Double, blocks: Double) {
  def /(d: Double): Cell = Cell(wallNs / d, simNs / d, blocks / d)

  /** Absolute wall µs / simulated µs / blocks, as the tables print it. */
  def show: String = s"${BenchUtil.fmt(wallNs / 1e3)}/${BenchUtil.fmt(simNs / 1e3)}/${BenchUtil.fmt(blocks)}"
}

object Cell {
  /** Field-wise mean of `cells`. */
  def mean(cells: Seq[Cell]): Cell =
    Cell(cells.map(_.wallNs).sum, cells.map(_.simNs).sum, cells.map(_.blocks).sum) / cells.size

  /** Field-wise median of `cells`. */
  def median(cells: Seq[Cell]): Cell = {
    def med(xs: Seq[Double]): Double = xs.sorted.apply(xs.size / 2)
    Cell(med(cells.map(_.wallNs)), med(cells.map(_.simNs)), med(cells.map(_.blocks)))
  }
}

/** Timing and reporting helpers for the figure tables. */
object BenchUtil {

  /** Measures `body`, which returns the distinct blocks it touched: its wall
    * nanos, and the simulated I/O nanos `cache` charged the calling thread.
    */
  def measure(cache: CacheManager)(body: => Long): Cell = {
    cache.resetThreadSimulatedNanos()
    val t0 = System.nanoTime()
    val blocks = body
    val wall = System.nanoTime() - t0
    Cell(wall.toDouble, cache.threadSimulatedNanos.toDouble, blocks.toDouble)
  }

  /** Batched point lookups of `keys` at the latest timestamp, in one read
    * context; returns the distinct blocks touched.
    */
  def lookupBlocks(index: UmziIndex, keys: Array[(Array[Long], Array[Long])]): Long = {
    val ctx = index.newReadContext()
    QueryExec.batchLookup(index, keys, Long.MaxValue, ctx)
    ctx.blocksTouched.toLong
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
