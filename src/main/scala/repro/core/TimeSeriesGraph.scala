package repro.core

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** `G_T` as a compressed sparse row (CSR) adjacency, the layout phase P1's
  * DFS walks. Row `r` is source vertex `src(r)` (sorted ascending); its
  * out-edges are `offsets(r) until offsets(r + 1)`, with destinations `dst`
  * sorted ascending within the row. Edge `e`'s interaction series is
  * `t`/`f` over `seriesOffsets(e) until seriesOffsets(e + 1)`, sorted as
  * [[TimeSeriesGraph.build]] sorts it; a CSR built from a pairs table has
  * empty series.
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

  /** Collects `G_T` (the output of [[build]]) or a distinct-pairs table
    * (columns `src`, `dst`; the edges get empty series) to the driver as a
    * [[Csr]]. The collect is bounded by `spark.driver.maxResultSize`: a
    * larger graph fails with Spark's error, which states the size.
    */
  def collectCsr(g: DataFrame): Csr = {
    val spark = g.sparkSession
    import spark.implicits._
    // One task per core rather than one per shuffle partition of `g`.
    val parts = g.coalesce(spark.sparkContext.defaultParallelism)
    val rows =
      if (g.columns.contains("series"))
        parts.select(col("src"), col("dst"), col("series.t"), col("series.f"))
          .as[(Long, Long, Array[Long], Array[Double])].collect()
      else
        parts.select(col("src"), col("dst")).as[(Long, Long)].collect()
          .map { case (s, d) => (s, d, Array.emptyLongArray, Array.emptyDoubleArray) }
    val sorted = rows.sortBy(r => (r._1, r._2))
    val n = sorted.length
    val src = Array.newBuilder[Long]
    val offsets = Array.newBuilder[Int]
    val seriesOffsets = new Array[Int](n + 1)
    for (e <- 0 until n) {
      if (e == 0 || sorted(e)._1 != sorted(e - 1)._1) { src += sorted(e)._1; offsets += e }
      seriesOffsets(e + 1) = seriesOffsets(e) + sorted(e)._3.length
    }
    offsets += n
    new Csr(src.result(), offsets.result(), sorted.map(_._2), seriesOffsets,
      sorted.flatMap(_._3), sorted.flatMap(_._4))
  }
}
