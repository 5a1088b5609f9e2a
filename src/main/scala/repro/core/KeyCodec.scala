package repro.core

import java.lang.invoke.MethodHandles
import java.nio.ByteOrder

/** Lexicographically comparable fixed-width encodings (paper §4.2).
  *
  * All ordering columns — hash, equality, sort, beginTS — are stored so that
  * unsigned byte-wise comparison (`Arrays.compareUnsigned`) matches the
  * logical order, "similar to LevelDB", letting index queries compare keys
  * with plain memory compares.
  *
  * Encodings:
  *  - signed long -> 8 big-endian bytes with the sign bit flipped, so the
  *    unsigned byte order equals the signed numeric order;
  *  - beginTS -> the encoding of `-beginTS` (descending order, so that within
  *    one key the most recent version sorts first — paper §4.2);
  *  - 64-bit hash -> raw big-endian bytes (unsigned order is fine for a hash).
  */
object KeyCodec {

  /** Bytes per encoded long column. */
  val LongWidth: Int = 8

  /** Encode a signed long so unsigned lexicographic order == numeric order. */
  def writeLongOrdered(v: Long, dst: Array[Byte], pos: Int): Unit =
    writeLongRaw(v ^ Long.MinValue, dst, pos)

  def readLongOrdered(src: Array[Byte], pos: Int): Long =
    readLongRaw(src, pos) ^ Long.MinValue

  /** Descending-order encoding for beginTS (most recent first). */
  def writeTsDescending(ts: Long, dst: Array[Byte], pos: Int): Unit =
    writeLongOrdered(-ts, dst, pos)

  def readTsDescending(src: Array[Byte], pos: Int): Long =
    -readLongOrdered(src, pos)

  // one big-endian view for every raw read and write: the JIT turns each
  // access into a single (byte-swapped) load or store, at any offset. The
  // type ascriptions on `get` give the call its primitive signature; without
  // them scalac links it as returning Object and boxes every value.
  private val LongView = MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.BIG_ENDIAN)
  private val IntView = MethodHandles.byteArrayViewVarHandle(classOf[Array[Int]], ByteOrder.BIG_ENDIAN)

  def writeLongRaw(v: Long, dst: Array[Byte], pos: Int): Unit = LongView.set(dst, pos, v)

  def readLongRaw(src: Array[Byte], pos: Int): Long = (LongView.get(src, pos): Long)

  def writeIntRaw(v: Int, dst: Array[Byte], pos: Int): Unit = IntView.set(dst, pos, v)

  def readIntRaw(src: Array[Byte], pos: Int): Int = (IntView.get(src, pos): Int)

  /** 64-bit hash of the equality column values (splitmix64-style mixing).
    *
    * The hash column speeds up equality predicates and feeds the offset
    * array; it must be deterministic so that the same key hashes identically
    * in every run of every zone.
    */
  def hash64(eqValues: Array[Long]): Long = {
    var h = 0x9e3779b97f4a7c15L
    var i = 0
    while (i < eqValues.length) {
      var x = eqValues(i) + 0x9e3779b97f4a7c15L * (i + 1)
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      x = x ^ (x >>> 31)
      h = h ^ x + 0x9e3779b97f4a7c15L + (h << 6) + (h >>> 2)
      i += 1
    }
    h
  }

  /** Unsigned lexicographic comparison of `len` bytes at the given offsets;
    * only the sign of the result is meaningful.
    */
  def compareUnsigned(
      a: Array[Byte], aPos: Int,
      b: Array[Byte], bPos: Int,
      len: Int): Int =
    java.util.Arrays.compareUnsigned(a, aPos, aPos + len, b, bPos, bPos + len)
}
