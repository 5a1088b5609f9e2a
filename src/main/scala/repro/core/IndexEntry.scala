package repro.core

/** Logical view of one index entry (paper §4.2, Fig 2a).
  *
  * An entry is the index row for one record version: key column values, the
  * version timestamp `beginTS`, the record's RID, and any included column
  * values. Entries are materialized from / serialized to the fixed-width
  * byte layout described by [[IndexDef]].
  */
final case class IndexEntry(
    eqValues: Array[Long],
    sortValues: Array[Long],
    beginTS: Long,
    rid: Rid,
    includedValues: Array[Long]) {

  override def toString: String =
    s"IndexEntry(eq=${eqValues.mkString(",")} sort=${sortValues.mkString(",")} " +
      s"ts=$beginTS rid=$rid inc=${includedValues.mkString(",")})"

  override def equals(other: Any): Boolean = other match {
    case o: IndexEntry =>
      eqValues.sameElements(o.eqValues) && sortValues.sameElements(o.sortValues) &&
        beginTS == o.beginTS && rid == o.rid &&
        includedValues.sameElements(o.includedValues)
    case _ => false
  }

  override def hashCode(): Int =
    (eqValues.toSeq, sortValues.toSeq, beginTS, rid).hashCode()
}

object IndexEntry {

  /** Serialize `e` into `dst` at byte offset `pos` using `defn`'s layout. */
  def write(defn: IndexDef, e: IndexEntry, dst: Array[Byte], pos: Int): Unit = {
    require(e.eqValues.length == defn.nEq, s"expected ${defn.nEq} eq values")
    require(e.sortValues.length == defn.nSort, s"expected ${defn.nSort} sort values")
    require(e.includedValues.length == defn.nIncluded, s"expected ${defn.nIncluded} included values")
    var p = pos
    if (defn.hasHash) {
      KeyCodec.writeLongRaw(defn.hashOf(e.eqValues), dst, p)
      p += KeyCodec.LongWidth
    }
    var i = 0
    while (i < defn.nEq) {
      KeyCodec.writeLongOrdered(e.eqValues(i), dst, p); p += KeyCodec.LongWidth; i += 1
    }
    i = 0
    while (i < defn.nSort) {
      KeyCodec.writeLongOrdered(e.sortValues(i), dst, p); p += KeyCodec.LongWidth; i += 1
    }
    KeyCodec.writeTsDescending(e.beginTS, dst, p); p += KeyCodec.LongWidth
    Rid.write(e.rid, dst, p); p += Rid.Width
    i = 0
    while (i < defn.nIncluded) {
      KeyCodec.writeLongOrdered(e.includedValues(i), dst, p); p += KeyCodec.LongWidth; i += 1
    }
  }

  /** Deserialize the entry at byte offset `pos` of `src`. */
  def read(defn: IndexDef, src: Array[Byte], pos: Int): IndexEntry = {
    val eq = new Array[Long](defn.nEq)
    var i = 0
    while (i < defn.nEq) {
      eq(i) = KeyCodec.readLongOrdered(src, pos + defn.eqOffset + i * KeyCodec.LongWidth)
      i += 1
    }
    val sort = new Array[Long](defn.nSort)
    i = 0
    while (i < defn.nSort) {
      sort(i) = KeyCodec.readLongOrdered(src, pos + defn.sortOffset + i * KeyCodec.LongWidth)
      i += 1
    }
    val ts = KeyCodec.readTsDescending(src, pos + defn.tsOffset)
    val rid = Rid.read(src, pos + defn.ridOffset)
    val inc = new Array[Long](defn.nIncluded)
    i = 0
    while (i < defn.nIncluded) {
      inc(i) = KeyCodec.readLongOrdered(src, pos + defn.includedOffset + i * KeyCodec.LongWidth)
      i += 1
    }
    IndexEntry(eq, sort, ts, rid, inc)
  }
}
