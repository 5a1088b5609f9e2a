package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import Fixtures._

/** Per-batch block dedup (paper §8.3.2) against a reference set of
  * (run id, block) pairs.
  */
class ReadContextSpec extends AnyFunSuite {

  private def runOf(id: Long, nEntries: Int, entriesPerBlock: Int): IndexRun =
    buildRun(I1, (0 until nEntries).map(i => entry(i % 3, i, 1 + i)), id = id,
      entriesPerBlock = entriesPerBlock)

  /** `wide` needs three bitmap words, `copy` is a second object with the
    * id of `wide`, `full` fills exactly one word and `small` part of one.
    */
  private val wide = runOf(1, 300, 2)
  private val copy = persisted(wide)
  private val small = runOf(2, 20, 4)
  private val full = runOf(3, 64, 1)
  private val runs = Vector(wide, copy, small, full)

  /** Records every block access as (index of the run object in `runs`, block). */
  private final class Recorder extends StorageHooks {
    val accesses = mutable.ArrayBuffer.empty[(Int, Int)]
    override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = ()
    override def onRunsDetached(runIds: Seq[Long]): Unit = ()
    override def onSharedDeleted(runIds: Seq[Long]): Unit = ()
    override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit =
      accesses += ((runs.indexWhere(_ eq run), blockIdx))
  }

  private val touchGen: Gen[(Int, Int)] = for {
    r <- Gen.choose(0, runs.size - 1)
    last = runs(r).numDataBlocks - 1
    b <- Gen.frequency(4 -> Gen.choose(0, last), 1 -> Gen.oneOf(0, 63 min last, 64 min last, last))
  } yield (r, b)

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("fixture runs span one to three bitmap words and share an id") {
    assert(wide.numDataBlocks > 128 && full.numDataBlocks == 64 && small.numDataBlocks < 64)
    assert((copy ne wide) && copy.id == wide.id && copy.numDataBlocks == wide.numDataBlocks)
  }

  test("onBlockAccess fires once per distinct (run id, block), in touch order") {
    check(Prop.forAll(Gen.listOf(touchGen)) { touches =>
      val rec = new Recorder
      val ctx = new ReadContext(rec)
      val seen = mutable.HashSet.empty[(Long, Int)]
      val expected = mutable.ArrayBuffer.empty[(Int, Int)]
      touches.forall { case (r, b) =>
        ctx.touch(runs(r), b)
        if (seen.add((runs(r).id, b))) expected += ((r, b))
        ctx.blocksTouched == seen.size
      } && rec.accesses == expected
    })
  }

  test("contexts are independent") {
    val rec = new Recorder
    val a = new ReadContext(rec)
    val b = new ReadContext(rec)
    a.touch(wide, 130)
    b.touch(copy, 130)
    a.touch(copy, 130)
    assert(rec.accesses == Seq((0, 130), (1, 130)))
    assert(a.blocksTouched == 1 && b.blocksTouched == 1)
  }
}
