package repro.core

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

  def writeLongRaw(v: Long, dst: Array[Byte], pos: Int): Unit = {
    dst(pos) = (v >>> 56).toByte
    dst(pos + 1) = (v >>> 48).toByte
    dst(pos + 2) = (v >>> 40).toByte
    dst(pos + 3) = (v >>> 32).toByte
    dst(pos + 4) = (v >>> 24).toByte
    dst(pos + 5) = (v >>> 16).toByte
    dst(pos + 6) = (v >>> 8).toByte
    dst(pos + 7) = v.toByte
  }

  def readLongRaw(src: Array[Byte], pos: Int): Long = {
    var v = 0L
    var i = 0
    while (i < 8) { v = (v << 8) | (src(pos + i) & 0xffL); i += 1 }
    v
  }

  def writeIntRaw(v: Int, dst: Array[Byte], pos: Int): Unit = {
    dst(pos) = (v >>> 24).toByte
    dst(pos + 1) = (v >>> 16).toByte
    dst(pos + 2) = (v >>> 8).toByte
    dst(pos + 3) = v.toByte
  }

  def readIntRaw(src: Array[Byte], pos: Int): Int = {
    var v = 0
    var i = 0
    while (i < 4) { v = (v << 8) | (src(pos + i) & 0xff); i += 1 }
    v
  }

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
