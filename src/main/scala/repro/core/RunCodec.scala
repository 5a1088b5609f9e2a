package repro.core

import java.io.{BufferedInputStream, DataInputStream, EOFException, IOException}
import java.nio.ByteBuffer
import java.nio.channels.{Channels, FileChannel}
import java.nio.file.{Path, StandardOpenOption}

/** The run file on shared storage (paper §5.5, §6).
  *
  * Layout mirrors the paper's physical run: a header block (magic, metadata,
  * synopsis, offset array, ancestor lineage, data length) followed by the
  * entry data. Runs are written append-only as whole files — shared storage
  * supports neither random writes nor in-place updates. `run.data` moves
  * between the heap and the file in one copy each way.
  */
object RunCodec {

  private val Magic = 0x554d5a49 // "UMZI"
  private val Version = 1

  /** Largest slice handed to one channel call. A heap buffer goes through a
    * per-thread cached direct buffer of the slice's size, which the JDK keeps:
    * one 100 MB write would pin 100 MB of native memory per writer thread.
    */
  private val SliceBytes = 1 << 20

  /** Header size: 61 bytes of fixed fields plus the arrays. The data starts
    * at this file offset.
    */
  private def headerBytes(nCols: Int, nOffsets: Int, nAncestors: Int): Long =
    61L + 16L * nCols + 4L * nOffsets + 8L * nAncestors

  /** Write `run` as the file `file`: the header, then `run.data` itself. */
  def write(run: IndexRun, file: Path): Unit = {
    val offsets = run.offsetArray.fold(Array.emptyIntArray)(_.offsets)
    val h = ByteBuffer.allocate(
      headerBytes(run.synopsis.nCols, offsets.length, run.ancestorRunIds.size).toInt)
    h.putInt(Magic).putInt(Version).putLong(run.id).put(run.zone.code).putInt(run.level)
      .putLong(run.blockRange.lo).putLong(run.blockRange.hi)
      .putInt(run.count).putInt(run.entriesPerBlock).putInt(run.synopsis.nCols)
    run.synopsis.mins.foreach(h.putLong)
    run.synopsis.maxs.foreach(h.putLong)
    h.putInt(run.offsetArray.fold(-1)(_.bits))
    offsets.foreach(h.putInt)
    h.putInt(run.ancestorRunIds.size)
    run.ancestorRunIds.foreach(h.putLong)
    h.putInt(run.data.length)
    h.flip()
    val ch = FileChannel.open(file, StandardOpenOption.CREATE, StandardOpenOption.WRITE,
      StandardOpenOption.TRUNCATE_EXISTING)
    try {
      sliced(h)(ch.write)
      sliced(ByteBuffer.wrap(run.data))(ch.write)
    } finally ch.close()
  }

  /** Read the run file `file`. A file whose lengths disagree with its size
    * (torn, truncated or with trailing bytes) fails before the data array
    * is allocated.
    */
  def read(defn: IndexDef, file: Path): IndexRun = {
    val ch = FileChannel.open(file, StandardOpenOption.READ)
    try {
      val size = ch.size()
      def check(ok: Boolean, what: => String): Unit =
        if (!ok) throw new IOException(s"corrupt run file $file: $what")
      /** `n` items of `width` bytes, if they can fit in the file. */
      def items(n: Int, width: Int, what: String): Int = {
        check(n >= 0 && n.toLong * width <= size, s"$what count $n exceeds the file size $size")
        n
      }
      val in = new DataInputStream(new BufferedInputStream(Channels.newInputStream(ch)))
      check(in.readInt() == Magic, "bad run magic")
      check(in.readInt() == Version, "unsupported run version")
      val id = in.readLong()
      val zone = ZoneId.fromCode(in.readByte())
      val level = in.readInt()
      val range = BlockRange(in.readLong(), in.readLong())
      val count = in.readInt()
      val epb = in.readInt()
      val nCols = items(in.readInt(), 16, "synopsis column")
      val mins = Array.fill(nCols)(in.readLong())
      val maxs = Array.fill(nCols)(in.readLong())
      val bits = in.readInt()
      check(bits >= -1 && bits <= 30, s"bad offset-array bits $bits")
      val oa =
        if (bits < 0) None
        else Some(OffsetArray(bits, Array.fill(items(1 << bits, 4, "offset"))(in.readInt())))
      val nAnc = items(in.readInt(), 8, "ancestor")
      val ancestors = Seq.fill(nAnc)(in.readLong())
      val dataLen = in.readInt()
      val dataAt = headerBytes(nCols, oa.fold(0)(_.offsets.length), nAnc)
      check(count >= 0 && dataLen == count.toLong * defn.entryWidth,
        s"$dataLen data bytes for $count entries of ${defn.entryWidth} bytes")
      check(dataAt + dataLen == size, s"header $dataAt + data $dataLen bytes != file size $size")
      val data = new Array[Byte](dataLen)
      sliced(ByteBuffer.wrap(data))(b => ch.read(b, dataAt + b.position()))
      new IndexRun(defn, id, zone, level, range, count, epb, Synopsis(mins, maxs), oa, data, ancestors)
    } finally ch.close()
  }

  /** Drain `buf` through `io` at most [[SliceBytes]] at a time. */
  private def sliced(buf: ByteBuffer)(io: ByteBuffer => Int): Unit = {
    val end = buf.limit()
    while (buf.position() < end) {
      buf.limit(math.min(end, buf.position() + SliceBytes))
      if (io(buf) < 0) throw new EOFException("run file ended early")
    }
  }
}
