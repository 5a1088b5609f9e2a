package repro.core

/** Per-run synopsis: the (min, max) range of each key column (paper §4.2).
  *
  * A run can be skipped by an index query if the queried value of some key
  * column does not overlap the range recorded here. Column order follows
  * `IndexDef.keyCols` (equality columns first, then sort columns).
  */
final case class Synopsis(mins: Array[Long], maxs: Array[Long]) {
  require(mins.length == maxs.length, "mins/maxs length mismatch")

  def nCols: Int = mins.length

  /** Does column `col`'s recorded range intersect [lo, hi]? */
  def overlaps(col: Int, lo: Long, hi: Long): Boolean =
    !(hi < mins(col) || lo > maxs(col))

  /** Does column `col`'s recorded range contain `v`? */
  def contains(col: Int, v: Long): Boolean = overlaps(col, v, v)

  override def toString: String =
    (0 until nCols).map(i => s"[${mins(i)},${maxs(i)}]").mkString("Synopsis(", ", ", ")")

  override def equals(other: Any): Boolean = other match {
    case o: Synopsis => mins.sameElements(o.mins) && maxs.sameElements(o.maxs)
    case _ => false
  }
  override def hashCode(): Int = (mins.toSeq, maxs.toSeq).hashCode()
}
