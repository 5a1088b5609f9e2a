package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}

/** The run-file encoder before the channel writer, kept as the reference
  * that `RunCodec.write` must equal byte for byte: the whole file assembled
  * in a `DataOutputStream` over a byte array, format version 1.
  */
object ReferenceRunCodec {

  private val Magic = 0x554d5a49 // "UMZI"
  private val Version = 1

  def serialize(run: IndexRun): Array[Byte] = {
    val bos = new ByteArrayOutputStream(64 + run.data.length)
    val out = new DataOutputStream(bos)
    out.writeInt(Magic)
    out.writeInt(Version)
    out.writeLong(run.id)
    out.writeByte(run.zone.code)
    out.writeInt(run.level)
    out.writeLong(run.blockRange.lo)
    out.writeLong(run.blockRange.hi)
    out.writeInt(run.count)
    out.writeInt(run.entriesPerBlock)
    out.writeInt(run.synopsis.nCols)
    run.synopsis.mins.foreach(out.writeLong)
    run.synopsis.maxs.foreach(out.writeLong)
    run.offsetArray match {
      case Some(oa) =>
        out.writeInt(oa.bits)
        oa.offsets.foreach(out.writeInt)
      case None =>
        out.writeInt(-1)
    }
    out.writeInt(run.ancestorRunIds.size)
    run.ancestorRunIds.foreach(out.writeLong)
    out.writeInt(run.data.length)
    out.write(run.data)
    out.flush()
    bos.toByteArray
  }
}
