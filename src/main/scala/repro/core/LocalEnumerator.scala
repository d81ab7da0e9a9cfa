package repro.core

/** Phase P2 of the paper's two-phase algorithm (Algorithm 1): enumerate the
  * maximal flow-motif instances inside one structural match. This object is
  * the one P2 core: a window iterator ([[windows]]) and a prefix recursion
  * ([[search]]) that count, enumerate, top-k ([[TopKEnumerator]]) and the DP
  * top-1 ([[MaxFlowDP]], windows only) share.
  *
  * Windows are anchored at each timestamp of `R(e_1)`: `T = [t_s, t_s + δ]`.
  * A window is *skipped* when it contains no `R(e_m)` element later than the
  * end of the previous non-skipped window — the paper's rule for position
  * [13,23] in Figure 7. Why this is exactly right:
  *
  *  - Every instance generated in a window contains the window's first
  *    `R(e_1)` element (prefixes start at the window start) and, because the
  *    last edge-set takes *all* remaining elements, the latest `R(e_m)`
  *    element of the window that is after `max E_{m-1}` — which is the
  *    latest `R(e_m)` element in the whole window.
  *  - If a window anchored at `t_s` were not skipped but one of its instances
  *    could be extended by an earlier `R(e_1)` element `x` (the only possible
  *    cross-window extension), then the instance's last element would be
  *    ≤ x + δ; but the last element is an `R(e_m)` element strictly later
  *    than every previously covered window end, in particular later than
  *    `x + δ` (else `x`'s own window would not have been skipped/preceding).
  *    Contradiction — so every emitted instance is maximal.
  *  - Conversely any maximal instance is found in the window anchored at its
  *    first `R(e_1)` element (that window is never skipped: the instance's
  *    own last `e_m` element is new, otherwise extending the instance into
  *    the previous window's enumeration would contradict its maximality).
  *
  * Within a window, maximality forces each `E_{i+1}` to start at the first
  * `R(e_{i+1})` element strictly after `max E_i`, and forces each edge-set to
  * be a gap-free run; the only freedom is where each of the first m-1
  * edge-sets ends. A prefix of `e_i` ending at element `x` is admissible only
  * if `e_i`'s next element is after the window end, or some `R(e_{i+1})`
  * element lies strictly between `x` and that next element (otherwise the
  * next element could be added — the paper's "no instance contains just the
  * first two elements of e_1" remark for Figure 7). Every prefix is then
  * offered to the sink's threshold test, which prunes the search space
  * exactly as in Algorithm 1 line 16 (fixed φ) or Section 5 (floating
  * `f(G_I^k)`).
  */
object LocalEnumerator {

  /** What the recursion asks of its caller. A prefix or instance is described
    * by index ranges: edge-set i is `series(i)` from `starts(i)` (inclusive)
    * to `ends(i)` (exclusive).
    */
  private[core] trait Sink {
    /** Whether a prefix whose flow is capped at `f` is still admissible. */
    def admits(f: Double): Boolean

    /** A finished instance of flow `f`; the arrays are reused after return. */
    def emit(starts: Array[Int], ends: Array[Int], f: Double): Unit
  }

  /** Enumerate all maximal instances of an m-edge motif over `series`, where
    * `series(i)` is the interaction series mapped to motif edge label i+1.
    */
  def enumerate(
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      phi: Double
  ): Vector[LocalInstance] = {
    val out = Vector.newBuilder[LocalInstance]
    search(series, delta, new Sink {
      def admits(f: Double): Boolean = f >= phi
      def emit(starts: Array[Int], ends: Array[Int], f: Double): Unit = out += instance(series, starts, ends)
    })
    out.result()
  }

  /** Count instances without materializing them. */
  def count(series: IndexedSeq[IndexedSeq[TF]], delta: Long, phi: Double): Long = {
    var n = 0L
    search(series, delta, new Sink {
      def admits(f: Double): Boolean = f >= phi
      def emit(starts: Array[Int], ends: Array[Int], f: Double): Unit = n += 1
    })
    n
  }

  /** The instance whose edge-sets are the given index ranges of `series`. */
  private[core] def instance(
      series: IndexedSeq[IndexedSeq[TF]],
      starts: Array[Int],
      ends: Array[Int]
  ): LocalInstance =
    LocalInstance(Vector.tabulate(series.length)(i => series(i).slice(starts(i), ends(i)).toVector))

  /** Visit every non-skipped window of `series` as (index of its anchoring
    * `R(e_1)` element, window end). The window end saturates at
    * `Long.MaxValue`, so a δ of `Long.MaxValue` means "unbounded". A negative
    * δ or an unsorted series is rejected here, for every P2 entry but `dpTable`.
    */
  private[core] def windows(series: IndexedSeq[IndexedSeq[TF]], delta: Long)(visit: (Int, Long) => Unit): Unit = {
    require(delta >= 0, "delta must be non-negative")
    Series.requireSorted(series)
    if (series.isEmpty || series.exists(_.isEmpty)) return
    val e1 = series.head
    val em = series.last
    var fresh = 0 // first R(e_m) element after the previous visited window's end
    var a = 0
    while (a < e1.length) {
      val t = e1(a).t
      val we = if (t > Long.MaxValue - delta) Long.MaxValue else t + delta
      // Skip rule: no R(e_m) element after the previous window end and
      // within this one => only non-maximal instances.
      if (fresh < em.length && em(fresh).t <= we) {
        visit(a, we)
        fresh = Series.upperBound(em, we)
      }
      a += 1
    }
  }

  /** Hand every maximal instance of sorted `series` that `sink` admits to it.
    * A prefix's flow is the running minimum of its edge-set flow sums.
    */
  private[core] def search(series: IndexedSeq[IndexedSeq[TF]], delta: Long, sink: Sink): Unit = {
    val m = series.length
    val starts = new Array[Int](m)
    val ends = new Array[Int](m)

    def rec(ei: Int, from: Int, windowEnd: Long, cap: Double): Unit = {
      val s = series(ei)
      if (from >= s.length || s(from).t > windowEnd) return // empty edge-set
      starts(ei) = from
      var k = from
      var fsum = 0.0
      if (ei == m - 1) {
        // Last edge: take everything up to the window end (maximal by construction).
        while (k < s.length && s(k).t <= windowEnd) { fsum += s(k).f; k += 1 }
        val f = math.min(cap, fsum)
        if (sink.admits(f)) { ends(ei) = k; sink.emit(starts, ends, f) }
      } else {
        val next = series(ei + 1)
        while (k < s.length && s(k).t <= windowEnd) {
          fsum += s(k).f
          val nIdx = Series.upperBound(next, s(k).t) // forced start of E_{i+1}
          val nT = if (nIdx < next.length) next(nIdx).t else Long.MaxValue
          val ownNextT = if (k + 1 < s.length) s(k + 1).t else Long.MaxValue
          // Maximal cut: e_i's next element must not be addable to this prefix.
          val maximalCut = !(ownNextT <= windowEnd && ownNextT < nT)
          val f = math.min(cap, fsum)
          if (maximalCut && sink.admits(f)) {
            ends(ei) = k + 1
            rec(ei + 1, nIdx, windowEnd, f)
          }
          k += 1
        }
      }
    }

    windows(series, delta)((a, windowEnd) => rec(0, a, windowEnd, Double.PositiveInfinity))
  }
}
