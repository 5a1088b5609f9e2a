package repro.core

import java.util.Arrays

/** The run build before the flat-row radix sort, kept as the reference that
  * `IndexRun.build` must equal byte for byte: one `byte[]` row per entry,
  * sorted with an unsigned byte comparator, then copied into `data`.
  */
object ReferenceBuild {

  def build(
      defn: IndexDef,
      id: Long,
      zone: ZoneId,
      level: Int,
      blockRange: BlockRange,
      entries: Array[IndexEntry],
      entriesPerBlock: Int = IndexRun.DefaultEntriesPerBlock): IndexRun = {
    val w = defn.entryWidth
    val rows = new Array[Array[Byte]](entries.length)
    var i = 0
    while (i < entries.length) {
      val row = new Array[Byte](w)
      IndexEntry.write(defn, entries(i), row, 0)
      rows(i) = row
      i += 1
    }
    Arrays.sort(rows, (a: Array[Byte], b: Array[Byte]) => Arrays.compareUnsigned(a, b))
    val data = new Array[Byte](entries.length * w)
    i = 0
    while (i < rows.length) {
      System.arraycopy(rows(i), 0, data, i * w, w)
      i += 1
    }
    IndexRun.fromSortedData(defn, id, zone, level, blockRange, data, entriesPerBlock, Seq.empty)
  }
}
