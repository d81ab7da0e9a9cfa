package repro.core

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** `G_T` as a compressed sparse row (CSR) adjacency, the layout phase P1's
  * DFS walks. Row `r` is source vertex `src(r)` (sorted ascending); its
  * out-edges are `offsets(r) until offsets(r + 1)`, with destinations `dst`
  * sorted ascending within the row. Edge `e`'s interaction series is
  * `t`/`f` over `seriesOffsets(e) until seriesOffsets(e + 1)`, sorted as
  * [[TimeSeriesGraph.build]] sorts it, and never empty.
  * [[TimeSeriesGraph.collectCsr]] builds it on the driver straight from the
  * interaction rows, without `G_T` or a cache; P2 reads [[series]] as is.
  */
final class Csr private[core] (
    val src: Array[Long],
    val offsets: Array[Int],
    val dst: Array[Long],
    seriesOffsets: Array[Int],
    t: Array[Long],
    f: Array[Double]
) extends Serializable {

  /** Number of source vertices (rows). */
  def numSources: Int = src.length

  /** Row of vertex `v`, or -1 when `v` has no out-edges. */
  def row(v: Long): Int = {
    val i = java.util.Arrays.binarySearch(src, v)
    if (i >= 0) i else -1
  }

  /** Edge from row `r` to vertex `v`, or -1 when there is none. */
  def edge(r: Int, v: Long): Int = {
    val i = java.util.Arrays.binarySearch(dst, offsets(r), offsets(r + 1), v)
    if (i >= 0) i else -1
  }

  /** Interaction series `R(src, dst)` of edge `e`. */
  def series(e: Int): IndexedSeq[TF] = {
    val lo = seriesOffsets(e)
    ArraySeq.tabulate(seriesOffsets(e + 1) - lo)(k => TF(t(lo + k), f(lo + k)))
  }
}

/** Construction of the time-series graph `G_T(V, E_T)` (Section 4, Figure 5):
  * the input multigraph's parallel edges between a pair of vertices are merged
  * into one edge carrying the interaction time series `R(u, v)`.
  *
  * Input edge schema everywhere in this repo:
  * `src: long, dst: long, t: long, f: double` — one row per interaction.
  */
object TimeSeriesGraph {

  /** `(src, dst, series: array<struct<t, f>>)`, series sorted by timestamp.
    * Self-loop interactions are dropped: motif vertices are distinct, so no
    * motif edge can ever be instantiated by a self-loop.
    */
  def build(edges: DataFrame): DataFrame =
    edges
      .where(col("src") =!= col("dst"))
      .groupBy(col("src"), col("dst"))
      .agg(sort_array(collect_list(struct(col("t"), col("f")))).as("series"))

  /** The distinct connected node pairs — the edge set `E_T` of `G_T`. It is
    * `G_T` without its series: when `G_T` of the same edges is cached the
    * pairs are read from the cache, and otherwise Catalyst prunes the series
    * aggregate, leaving a distinct over `(src, dst)`.
    */
  def pairs(edges: DataFrame): DataFrame = build(edges).select(col("src"), col("dst"))

  /** Collects interaction rows `(src, dst, t, f)` to the driver as a
    * [[Csr]]. Self-loops are dropped, and the rows are sorted once, by
    * `(src, dst, t, f)`: the order [[build]]'s `sort_array` gives a series.
    *
    * This is where interactions enter the search, so every row is checked
    * here: a null column, or a flow that is not finite and positive, fails
    * with an `IllegalArgumentException` that gives the number of such rows
    * and one of them. Nothing is cached. The collect is bounded by
    * `spark.driver.maxResultSize`: a larger input fails with Spark's error,
    * which states the size.
    */
  def collectCsr(rows: DataFrame): Csr = {
    val names = Seq("src", "dst", "t", "f")
    val types = Seq("long", "long", "long", "double")
    // One task per core rather than one per partition of the input.
    val in = rows.select(names.zip(types).map { case (n, ty) => col(n).cast(ty) }: _*)
      .coalesce(rows.sparkSession.sparkContext.defaultParallelism).collect()
    val bad = in.filter(r => r.anyNull || !(r.getDouble(3) > 0 && r.getDouble(3) < Double.PositiveInfinity))
    require(bad.isEmpty, s"input rows rejected: ${bad.length} (a null column, or a flow that is not " +
      s"finite and positive), e.g. (${names.mkString(", ")}) = ${bad.head.toSeq.mkString("(", ", ", ")")}")
    val kept = in.filter(r => r.getLong(0) != r.getLong(1))
    val src = kept.map(_.getLong(0))
    val dst = kept.map(_.getLong(1))
    val t = kept.map(_.getLong(2))
    val f = kept.map(_.getDouble(3))
    // Sort row indices rather than boxed rows; `sorted` boxes each index once.
    val order = Array.range(0, src.length).sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        var c = java.lang.Long.compare(src(a), src(b))
        if (c == 0) c = java.lang.Long.compare(dst(a), dst(b))
        if (c == 0) c = java.lang.Long.compare(t(a), t(b))
        if (c == 0) c = java.lang.Double.compare(f(a), f(b))
        c
      }
    })
    // Each run of equal (src, dst) is one edge; each run of equal src one row.
    val rowSrc = Array.newBuilder[Long]
    val offsets = Array.newBuilder[Int]
    val edgeDst = Array.newBuilder[Long]
    val seriesOffsets = Array.newBuilder[Int]
    var edges = 0
    for (k <- order.indices) {
      val i = order(k)
      val p = if (k == 0) -1 else order(k - 1)
      val newRow = p < 0 || src(i) != src(p)
      if (newRow || dst(i) != dst(p)) {
        if (newRow) { rowSrc += src(i); offsets += edges }
        edgeDst += dst(i)
        seriesOffsets += k
        edges += 1
      }
    }
    offsets += edges
    seriesOffsets += order.length
    new Csr(rowSrc.result(), offsets.result(), edgeDst.result(), seriesOffsets.result(),
      order.map(t(_)), order.map(f(_)))
  }
}
