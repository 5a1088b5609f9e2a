package umzibench

import java.util.{Arrays, SplittableRandom}
import repro.core.{IndexEntry, UmziIndex}

/** Expected state of the table: the latest version of every primary key.
  *
  * Keys live in append-only primitive arrays indexed by a dense slot; a new
  * key becomes visible to reader threads only when [[publish]] stores the
  * volatile length, so readers sample from a stable prefix without copying
  * it. Updates of an already published key overwrite its `ts` / `value`
  * slot after the version is visible in the index, so a reader that reads
  * a slot before its lookup may demand at least that version.
  * Single writer.
  */
final class KeyModel(maxKeys: Int) {
  private val slots = new SlotMap(maxKeys)
  val keys = new Array[Long](maxKeys)
  val ts = new Array[Long](maxKeys)
  val values = new Array[Long](maxKeys)
  /** Block (groom cycle) in which the key first appeared. */
  val firstBlock = new Array[Long](maxKeys)

  @volatile var published: Int = 0

  def size: Int = slots.size

  def upsert(key: Long, beginTs: Long, value: Long, block: Long): Unit = {
    val before = slots.size
    val s = slots.getOrInsert(key)
    if (s == before) { keys(s) = key; firstBlock(s) = block }
    ts(s) = beginTs
    values(s) = value
  }

  def publish(): Unit = published = slots.size

  def slotOf(key: Long): Int = slots.get(key)

  /** Published keys in (deviceId, msgNum) order. */
  def sortedKeys(): Array[Long] = {
    val a = Arrays.copyOf(keys, published)
    Arrays.sort(a)
    a
  }
}

object KeyModel {
  /** First index of `sorted` whose value is >= `k`. */
  def lowerBound(sorted: Array[Long], k: Long): Int = {
    var lo = 0
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) < k) lo = mid + 1 else hi = mid
    }
    lo
  }
}

/** Queries against an index whose expected answers come from a
  * [[KeyModel]]: batch lookups, short scans (at most 100 keys of one
  * device, about 50 on average) and long scans (one whole device), each
  * counted as one operation and checked exactly.
  *
  * @param msgSpan size of the msgNum domain the keys were drawn from
  */
final class ModelQueries(model: KeyModel, index: UmziIndex, checks: Checks, devices: Int, msgSpan: Long) {

  val sorted: Array[Long] = model.sortedKeys()
  private val n = sorted.length
  private val shortWidth = math.max(1L, (50.0 * devices * msgSpan / n).toLong)
  private val maxMsg = (1L << 40) - 1

  def matches(e: IndexEntry, k: Long): Boolean = {
    val s = model.slotOf(k)
    e.eqValues(0) == Mix.device(k) && e.sortValues(0) == Mix.msg(k) &&
      e.beginTS == model.ts(s) && e.includedValues(0) == model.values(s)
  }

  def lookupBatch(probe: QueryProbe, rng: SplittableRandom, batchKeys: Int): Unit = {
    val want = Array.fill(batchKeys)(sorted(rng.nextInt(n)))
    val batch = want.map(k => (Array(Mix.device(k)), Array(Mix.msg(k))))
    checks.guarded("batchLookup")(probe.batchLookup(index, batch)).foreach { res =>
      val bad = want.indices.find(i => !res(i).exists(e => matches(e, want(i))))
      checks.op(bad.isEmpty, s"lookup of key ${bad.map(want(_))} returned ${bad.map(res(_))}")
    }
  }

  def shortScan(probe: QueryProbe, rng: SplittableRandom): Unit = {
    val from = rng.nextInt(n)
    val k = sorted(from)
    val d = Mix.device(k)
    val lo = Mix.msg(k)
    val until = math.min(from + 100,
      KeyModel.lowerBound(sorted, Mix.pack(d, math.min(maxMsg, lo + shortWidth)) + 1))
    scan(probe, d, lo, Mix.msg(sorted(until - 1)), from, until, "short")
  }

  def longScan(probe: QueryProbe, rng: SplittableRandom): Unit = {
    val d = Mix.device(sorted(rng.nextInt(n)))
    val from = KeyModel.lowerBound(sorted, Mix.pack(d, 0))
    val until = KeyModel.lowerBound(sorted, Mix.pack(d + 1, 0))
    scan(probe, d, 0, maxMsg, from, until, "long")
  }

  private def scan(probe: QueryProbe, d: Long, lo: Long, hi: Long, from: Int, until: Int, kind: String): Unit =
    checks.guarded(s"$kind rangeScan")(probe.rangeScan(index, d, lo, hi, kind)).foreach { out =>
      val ok = out.size == until - from && out.indices.forall(j => matches(out(j), sorted(from + j)))
      checks.op(ok, s"$kind scan ($d,[$lo,$hi]) returned ${out.size} entries, expected ${until - from}")
    }
}

object Loop {
  /** Repeat `pattern` until `budgetNs` has elapsed, at least once. */
  def repeatFor(budgetNs: Long)(pattern: Seq[() => Unit]): Unit = {
    val t0 = System.nanoTime()
    while ({ pattern.foreach(_()); System.nanoTime() - t0 < budgetNs }) ()
  }
}
