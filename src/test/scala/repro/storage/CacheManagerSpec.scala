package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.Fixtures._

/** Multi-tier cache management (paper §6.1, §6.2). */
class CacheManagerSpec extends AnyFunSuite with TempDirs {

  private val tiers = TierConfig(
    memReadNanosPerBlock = 0L,
    ssdReadNanosPerBlock = 10L,
    sharedReadNanosPerBlock = 1000L)

  private def mkRun(id: Long, n: Int = 32, level: Int = 0): IndexRun =
    buildRun(I1, (0 until n).map(i => entry(i % 4, i, i)), id = id, level = level,
      range = BlockRange(id, id), entriesPerBlock = 8)

  test("write-through: a new persisted run is served from SSD") {
    val cm = new CacheManager(tiers)
    val run = mkRun(0)
    cm.onRunCreated(run, persisted = true)
    cm.onBlockAccess(run, 0)
    val s = cm.stats.snapshot
    assert(s.ssd == 1 && s.shared == 0)
    assert(s.simulatedNanos == 10L)
  }

  test("non-persisted runs are memory-resident and free") {
    val cm = new CacheManager(tiers)
    val run = mkRun(1, level = 1)
    cm.onRunCreated(run, persisted = false)
    cm.onBlockAccess(run, 0)
    val s = cm.stats.snapshot
    assert(s.mem == 1 && s.ssd == 0 && s.shared == 0)
    assert(s.simulatedNanos == 0L)
  }

  test("purged run pays shared-storage latency, then faults into SSD") {
    val cm = new CacheManager(tiers)
    val run = mkRun(2)
    cm.onRunCreated(run, persisted = true)
    cm.purgeRun(2)
    cm.onBlockAccess(run, 1)
    assert(cm.stats.snapshot.shared == 1)
    // second access to the same block: now cached in SSD
    cm.onBlockAccess(run, 1)
    val s = cm.stats.snapshot
    assert(s.shared == 1 && s.ssd == 1)
  }

  test("manual purge level keeps runs purged (Figure 14 control)") {
    val cm = new CacheManager(tiers)
    val l0 = mkRun(0, level = 0)
    val l2 = mkRun(1, level = 2)
    cm.onRunCreated(l0, persisted = true)
    cm.onRunCreated(l2, persisted = true)
    cm.setManualPurgeLevel(1)
    cm.onBlockAccess(l0, 0) // below purge level: SSD
    cm.onBlockAccess(l2, 0) // at/above purge level: shared, not retained
    cm.onBlockAccess(l2, 0) // still shared — the fault is released per batch
    val s = cm.stats.snapshot
    assert(s.ssd == 1 && s.shared == 2)
  }

  test("purgeAll purges everything; new runs stay uncached") {
    val cm = new CacheManager(tiers)
    val a = mkRun(0)
    cm.onRunCreated(a, persisted = true)
    cm.purgeAll()
    cm.onBlockAccess(a, 0)
    assert(cm.stats.snapshot.shared == 1)
    val b = mkRun(1)
    cm.onRunCreated(b, persisted = true) // write-through suppressed at purge level 0
    cm.onBlockAccess(b, 0)
    assert(cm.stats.snapshot.shared == 2)
  }

  test("detached runs free their SSD bytes") {
    val cm = new CacheManager(tiers)
    val run = mkRun(3)
    cm.onRunCreated(run, persisted = true)
    assert(cm.ssdBytes > 0)
    cm.onRunsDetached(Seq(3L))
    assert(cm.ssdBytes == 0)
  }

  test("block access on a detached run charges SSD (old query snapshot)") {
    val cm = new CacheManager(tiers)
    val run = mkRun(4)
    cm.onRunCreated(run, persisted = true)
    cm.onRunsDetached(Seq(4L))
    cm.onBlockAccess(run, 0)
    assert(cm.stats.snapshot.ssd == 1)
  }

  test("capacity eviction purges highest level / oldest first") {
    val blockBytes = 8L * I1.entryWidth
    // room for ~two 32-entry runs (4 blocks each)
    val cap = tiers.copy(ssdCapacityBytes = 8 * blockBytes)
    val cm = new CacheManager(cap)
    val low = mkRun(0, level = 0)
    val high = mkRun(1, level = 2)
    cm.onRunCreated(low, persisted = true)
    cm.onRunCreated(high, persisted = true)
    val extra = mkRun(2, level = 0)
    cm.onRunCreated(extra, persisted = true) // over budget: high level evicted
    cm.onBlockAccess(high, 0)
    assert(cm.stats.snapshot.shared == 1, "high-level run must have been purged")
    cm.onBlockAccess(low, 0)
    assert(cm.stats.snapshot.ssd >= 1, "low-level run must stay cached")
  }

  test("maintainCache reloads purged runs when spacious") {
    val blockBytes = 8L * I1.entryWidth
    val cm = new CacheManager(tiers.copy(ssdCapacityBytes = 100 * blockBytes))
    val run = mkRun(5)
    cm.onRunCreated(run, persisted = true)
    cm.purgeRun(5)
    assert(cm.ssdBytes == 0)
    cm.maintainCache()
    assert(cm.ssdBytes > 0, "run reloaded from shared storage in background")
    assert(cm.backgroundSharedReads.sum > 0)
    // reload was background work: query-visible stats unaffected
    assert(cm.stats.snapshot.shared == 0)
  }

  test("currentCachedLevel tracks the cached/purged boundary (Fig 7)") {
    val cm = new CacheManager(tiers)
    val l0 = mkRun(0, level = 0)
    val l1 = mkRun(1, level = 1)
    val l2 = mkRun(2, level = 2)
    Seq(l0, l1, l2).foreach(cm.onRunCreated(_, persisted = true))
    assert(cm.currentCachedLevel == 2)
    cm.purgeRun(2)
    assert(cm.currentCachedLevel == 1)
    cm.purgeRun(1)
    assert(cm.currentCachedLevel == 0)
    cm.purgeRun(0)
    assert(cm.currentCachedLevel == -1)
  }

  test("runs persist to shared storage when a SharedStorage is attached") {
    val s = new SharedStorage(tempDir("umzi-cm"))
    val cm = new CacheManager(tiers, Some(s))
    cm.onRunCreated(mkRun(7), persisted = true)
    assert(s.listRunIds() == Seq(7L))
    cm.onSharedDeleted(Seq(7L))
    assert(s.listRunIds().isEmpty)
  }

  test("IoStats snapshot delta arithmetic") {
    val st = new IoStats
    st.chargeSsd(10); st.chargeShared(1000)
    val a = st.snapshot
    st.chargeSsd(10)
    val b = st.snapshot
    val d = b - a
    assert(d.ssd == 1 && d.shared == 0 && d.simulatedNanos == 10)
    assert(b.totalBlocks == 3)
  }
}
