package repro.core

/** Dynamic-programming module for top-1 instance search (Section 5.1,
  * Algorithm 2 / Equation 2).
  *
  * Inside a window `T = [t_s, t_s+δ]` let `t_1 < t_2 < ... < t_τ` be the
  * distinct timestamps of all interactions of the structural match in `T`.
  * `Flow(i, κ)` is the maximum flow of any instance of the κ-edge prefix of
  * the motif inside `[t_1, t_i]`:
  *
  *   Flow(i, 1) = flow sum of R(e_1) elements in [t_1, t_i]
  *   Flow(i, κ) = max over j ≤ i of min(Flow(j-1, κ-1), flowsum_κ(t_j..t_i))
  *
  * A value of 0 encodes "no valid instance" (flows are strictly positive, so
  * real instances always have flow > 0; an empty edge-set contributes 0
  * through the min and is thereby excluded).
  */
object MaxFlowDP {

  /** The DP matrix for one explicit window (Table 2); its last cell is the
    * window's maximum instance flow. `series` must be sorted by timestamp.
    *
    * @return (timestamps `t_1..t_τ` in the window, matrix `flow(κ-1)(i)`)
    */
  def dpTable(
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Vector[Long], Vector[Vector[Double]]) = {
    Series.requireSorted(series)
    val (ts, table) = windowTable(series, windowStart, windowEnd)
    (ts.toVector, table.map(_.toVector).toVector)
  }

  /** Top-1 instance flow over the whole structural match: Algorithm 2 applied
    * to every window [[LocalEnumerator.windows]] visits — a skipped window's
    * instances are all dominated by extensions found in an earlier window,
    * and extensions only gain flow.
    */
  def maxFlow(series: IndexedSeq[IndexedSeq[TF]], delta: Long): Double = {
    var best = 0.0
    LocalEnumerator.windows(series, delta) { (a, windowEnd) =>
      // The anchoring R(e_1) element is in the window, so the table has cells.
      best = math.max(best, windowTable(series, series.head(a).t, windowEnd)._2.last.last)
    }
    best
  }

  /** [[dpTable]] over series already checked to be sorted. */
  private def windowTable(
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Array[Long], Array[Array[Double]]) = {
    val m = series.length
    val from = series.map(Series.lowerBound(_, windowStart))
    val ts = series.indices.flatMap { e =>
      val s = series(e)
      (from(e) until s.length).iterator.map(s(_).t).takeWhile(_ <= windowEnd)
    }.distinct.sorted.toArray
    val tau = ts.length
    if (tau == 0) return (ts, Array.fill(m)(Array.emptyDoubleArray))

    // cum(e)(i) = cumulative flow of series(e) elements in [windowStart, ts(i)]
    val cum: Array[Array[Double]] = Array.tabulate(m) { e =>
      val s = series(e)
      val out = new Array[Double](tau)
      var acc = 0.0
      var p = from(e)
      for (i <- 0 until tau) {
        while (p < s.length && s(p).t <= ts(i)) { acc += s(p).f; p += 1 }
        out(i) = acc
      }
      out
    }
    // flow of series(e) elements in (ts(j-1), ts(i)] — i.e. [t_j, t_i] since
    // timestamps are the discrete grid.
    def rangeFlow(e: Int, j: Int, i: Int): Double =
      cum(e)(i) - (if (j == 0) 0.0 else cum(e)(j - 1))

    val table = Array.ofDim[Double](m, tau)
    for (i <- 0 until tau) table(0)(i) = cum(0)(i)
    for (kappa <- 1 until m; i <- 0 until tau) {
      var best = 0.0
      var j = 1
      while (j <= i) {
        val v = math.min(table(kappa - 1)(j - 1), rangeFlow(kappa, j, i))
        if (v > best) best = v
        j += 1
      }
      table(kappa)(i) = best
    }
    (ts, table)
  }
}
