package repro.wildfire

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One upsert as it enters the live zone: the IoT-style primary key
  * (deviceId, msgNum), a payload value, and the transaction commit sequence
  * within the groom cycle (the low-order part of beginTS, paper §2.1).
  */
final case class Upsert(deviceId: Long, msgNum: Long, value: Long, commitSeq: Int)

/** Synthetic ingest workload of the paper's evaluation (§8.1, §8.4).
  *
  * Keys can be *sequential* (time-correlated, as from IoT devices numbering
  * their messages) or *random* (uniformly sampled, no temporal correlation).
  * The update model mimics a realistic IoT application: each cycle's batch
  * updates p% of the previous cycle's keys, 0.1·p% of keys from the last 50
  * cycles, and 0.01·p% of keys from the last 100 cycles; the rest are new
  * keys. Deterministic in the seed.
  */
final class Workload(
    nDevices: Long = 64,
    sequentialKeys: Boolean = true,
    updatePercent: Double = 10.0,
    seed: Long = 42L) {

  private val rng = new Random(seed)
  private var nextMsg: Long = 0L
  /** Keys ingested per past cycle, newest last (bounded history of 100). */
  private val history = ArrayBuffer.empty[ArrayBuffer[(Long, Long)]]

  private def freshKey(): (Long, Long) = {
    val device = math.floorMod(rng.nextLong(), nDevices)
    val msg =
      if (sequentialKeys) { val m = nextMsg; nextMsg += 1; m }
      else rng.nextLong(1L << 40)
    (device, msg)
  }

  private def sampleFrom(cycles: collection.Seq[ArrayBuffer[(Long, Long)]]): Option[(Long, Long)] = {
    val nonEmpty = cycles.filter(_.nonEmpty)
    if (nonEmpty.isEmpty) None
    else {
      val c = nonEmpty(rng.nextInt(nonEmpty.size))
      Some(c(rng.nextInt(c.size)))
    }
  }

  /** Generate the next groom cycle's batch of `n` upserts. */
  def nextBatch(n: Int): Array[Upsert] = {
    val batch = new Array[Upsert](n)
    val keysThisCycle = ArrayBuffer.empty[(Long, Long)]
    val p = updatePercent / 100.0
    var i = 0
    while (i < n) {
      val roll = rng.nextDouble()
      val key: (Long, Long) = {
        val updated =
          if (roll < p) sampleFrom(history.takeRight(1))
          else if (roll < p + 0.001 * updatePercent) sampleFrom(history.takeRight(50))
          else if (roll < p + 0.001 * updatePercent + 0.0001 * updatePercent)
            sampleFrom(history.takeRight(100))
          else None
        updated.getOrElse(freshKey())
      }
      batch(i) = Upsert(key._1, key._2, rng.nextLong(1L << 32), commitSeq = i)
      keysThisCycle += key
      i += 1
    }
    history += keysThisCycle
    if (history.size > 100) history.remove(0)
    batch
  }

  /** Sample `n` existing primary keys for lookup queries; falls back to fresh
    * keys when nothing has been ingested yet.
    */
  def sampleKeys(n: Int, sequential: Boolean): Array[(Long, Long)] = {
    val all = history.flatten
    if (all.isEmpty) return Array.tabulate(n)(i => (i.toLong % nDevices, i.toLong))
    if (sequential) {
      val start = rng.nextInt(math.max(1, all.size - n))
      Array.tabulate(n)(i => all((start + i) % all.size))
    } else {
      Array.fill(n)(all(rng.nextInt(all.size)))
    }
  }
}
