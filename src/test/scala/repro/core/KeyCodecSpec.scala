package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Lexicographically comparable encodings (paper §4.2). */
class KeyCodecSpec extends AnyFunSuite {

  private def cmpBytes(a: Array[Byte], b: Array[Byte]): Int =
    java.util.Arrays.compareUnsigned(a, b)

  private def encOrdered(v: Long): Array[Byte] = {
    val a = new Array[Byte](8); KeyCodec.writeLongOrdered(v, a, 0); a
  }

  private def encTs(v: Long): Array[Byte] = {
    val a = new Array[Byte](8); KeyCodec.writeTsDescending(v, a, 0); a
  }

  private def longs(n: Int, seed: Long): Seq[Long] = {
    val r = new Random(seed)
    Seq.fill(n)(r.nextLong()) ++ Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue)
  }

  test("ordered long roundtrip") {
    longs(500, 1).foreach(v => assert(KeyCodec.readLongOrdered(encOrdered(v), 0) == v))
  }

  test("ordered encoding preserves signed order under unsigned byte compare") {
    val vs = longs(200, 2)
    for (a <- vs; b <- vs.take(50)) {
      assert(Integer.signum(cmpBytes(encOrdered(a), encOrdered(b))) ==
        Integer.signum(java.lang.Long.compare(a, b)), s"a=$a b=$b")
    }
  }

  test("ordered encoding handles extremes") {
    val vals = Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue)
    val sorted = vals.sortBy(encOrdered)(Ordering.comparatorToOrdering(
      (x: Array[Byte], y: Array[Byte]) => cmpBytes(x, y)))
    assert(sorted == vals)
  }

  test("descending timestamp encoding: larger ts sorts first") {
    val vs = longs(200, 3).filter(_ > Long.MinValue)
    for (x <- vs; y <- vs.take(50)) {
      assert(Integer.signum(cmpBytes(encTs(x), encTs(y))) ==
        -Integer.signum(java.lang.Long.compare(x, y)), s"x=$x y=$y")
    }
  }

  test("descending timestamp roundtrip") {
    longs(500, 4).filter(_ > Long.MinValue)
      .foreach(v => assert(KeyCodec.readTsDescending(encTs(v), 0) == v))
  }

  test("raw long roundtrip") {
    longs(500, 5).foreach { v =>
      val a = new Array[Byte](8); KeyCodec.writeLongRaw(v, a, 0)
      assert(KeyCodec.readLongRaw(a, 0) == v)
    }
  }

  test("raw int roundtrip") {
    val r = new Random(6)
    (Seq.fill(500)(r.nextInt()) ++ Seq(Int.MinValue, -1, 0, 1, Int.MaxValue)).foreach { v =>
      val a = new Array[Byte](4); KeyCodec.writeIntRaw(v, a, 0)
      assert(KeyCodec.readIntRaw(a, 0) == v)
    }
  }

  test("raw encoding at non-zero offset") {
    val a = new Array[Byte](20)
    KeyCodec.writeLongRaw(0x1122334455667788L, a, 5)
    assert(KeyCodec.readLongRaw(a, 5) == 0x1122334455667788L)
  }

  /** Byte-at-a-time big-endian reads and writes: the reference for the
    * raw and ordered codecs.
    */
  private def refWrite(v: Long, bytes: Int, dst: Array[Byte], pos: Int): Unit =
    (0 until bytes).foreach(i => dst(pos + i) = (v >>> (8 * (bytes - 1 - i))).toByte)

  private def refRead(src: Array[Byte], pos: Int, bytes: Int): Long =
    (0 until bytes).foldLeft(0L)((acc, i) => (acc << 8) | (src(pos + i) & 0xffL))

  test("raw and ordered long/int codecs equal a byte-by-byte reference at any offset") {
    val cases = for {
      v <- Gen.frequency(3 -> Gen.long, 1 -> Gen.oneOf(Long.MinValue, -1L, 0L, 1L, Long.MaxValue))
      pos <- Gen.choose(0, 15)
      background <- Gen.containerOfN[Array, Byte](32, Gen.choose(Byte.MinValue, Byte.MaxValue))
    } yield (v, pos, background)
    val prop = Prop.forAll(cases) { case (v, pos, background) =>
      def written(write: Array[Byte] => Unit): Array[Byte] = { val a = background.clone(); write(a); a }
      val i = v.toInt
      // writes touch exactly their own bytes
      written(KeyCodec.writeLongRaw(v, _, pos)).sameElements(written(refWrite(v, 8, _, pos))) &&
        written(KeyCodec.writeLongOrdered(v, _, pos))
          .sameElements(written(refWrite(v ^ Long.MinValue, 8, _, pos))) &&
        written(KeyCodec.writeIntRaw(i, _, pos)).sameElements(written(refWrite(i.toLong, 4, _, pos))) &&
        KeyCodec.readLongRaw(background, pos) == refRead(background, pos, 8) &&
        KeyCodec.readLongOrdered(background, pos) == (refRead(background, pos, 8) ^ Long.MinValue) &&
        KeyCodec.readIntRaw(background, pos) == refRead(background, pos, 4).toInt &&
        // a RID's block ID sits one byte past the RID, so at an odd offset when the RID's is even
        written(Rid.write(Rid(ZoneId.PostGroomed, v, i), _, pos)).sameElements(written { a =>
          a(pos) = ZoneId.PostGroomed.code; refWrite(v, 8, a, pos + 1); refWrite(i.toLong, 4, a, pos + 9)
        }) &&
        Rid.read(written(Rid.write(Rid(ZoneId.Groomed, v, i), _, pos)), pos) == Rid(ZoneId.Groomed, v, i)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("hash64 is deterministic") {
    val v = Array(42L, 7L)
    assert(KeyCodec.hash64(v) == KeyCodec.hash64(Array(42L, 7L)))
  }

  test("hash64 differs for different inputs (spot checks)") {
    assert(KeyCodec.hash64(Array(1L)) != KeyCodec.hash64(Array(2L)))
    assert(KeyCodec.hash64(Array(1L, 2L)) != KeyCodec.hash64(Array(2L, 1L)))
    assert(KeyCodec.hash64(Array(0L)) != KeyCodec.hash64(Array(0L, 0L)))
  }

  test("hash64 distributes over buckets") {
    val bits = 6
    val buckets = (0L until 4096L)
      .map(k => OffsetArray.bucketOf(KeyCodec.hash64(Array(k)), bits))
      .groupBy(identity).view.mapValues(_.size)
    // all 64 buckets hit, no bucket wildly overloaded
    assert(buckets.size == 64)
    assert(buckets.values.max < 4096 / 64 * 3)
  }

  test("compareUnsigned treats bytes as unsigned") {
    val a = Array[Byte](0x7f)
    val b = Array[Byte](-0x80) // 0x80 unsigned = 128 > 127
    assert(KeyCodec.compareUnsigned(a, 0, b, 0, 1) < 0)
  }

  test("compareUnsigned compares at offsets") {
    val a = Array[Byte](9, 1, 2, 3)
    val b = Array[Byte](0, 1, 2, 4)
    assert(KeyCodec.compareUnsigned(a, 1, b, 1, 2) == 0)
    assert(KeyCodec.compareUnsigned(a, 1, b, 1, 3) < 0)
  }

  /** Byte-at-a-time unsigned comparison: the reference for compareUnsigned. */
  private def referenceCompare(a: Array[Byte], aPos: Int, b: Array[Byte], bPos: Int, len: Int): Int = {
    var i = 0
    while (i < len) {
      val x = a(aPos + i) & 0xff
      val y = b(bPos + i) & 0xff
      if (x != y) return x - y
      i += 1
    }
    0
  }

  test("compareUnsigned agrees in sign with a byte-by-byte compare") {
    // two slices that share a random-length prefix, drawn from a small
    // alphabet that straddles 0x80 so equal bytes and high bytes are common
    val alphabet = Array[Byte](0, 1, 0x7f, -0x80, -0x7f, -1)
    val slices = for {
      len <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 40))
      common <- Gen.choose(0, len)
      aPos <- Gen.choose(0, 9)
      bPos <- Gen.choose(0, 9)
      a <- Gen.containerOfN[Array, Byte](aPos + len + 3, Gen.oneOf(alphabet.toSeq))
      b <- Gen.containerOfN[Array, Byte](bPos + len + 3, Gen.oneOf(alphabet.toSeq))
    } yield {
      System.arraycopy(a, aPos, b, bPos, common)
      (a, aPos, b, bPos, len)
    }
    val prop = Prop.forAll(slices) { case (a, aPos, b, bPos, len) =>
      Integer.signum(KeyCodec.compareUnsigned(a, aPos, b, bPos, len)) ==
        Integer.signum(referenceCompare(a, aPos, b, bPos, len)) &&
        Integer.signum(KeyCodec.compareUnsigned(b, bPos, a, aPos, len)) ==
        Integer.signum(referenceCompare(b, bPos, a, aPos, len))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("compareUnsigned of an empty slice is 0") {
    val a = Array[Byte](1, 2)
    val b = Array[Byte](-1)
    assert(KeyCodec.compareUnsigned(a, 2, b, 0, 0) == 0)
  }
}
