package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** A structural match bundled with its per-motif-edge time series, the unit of
  * work for phase P2. `vs(i)` is the graph vertex mapped to motif vertex `i`;
  * `series(i)` is `R(e_{i+1})`.
  */
final case class MatchRow(vs: Seq[Long], series: Seq[Seq[TF]])

/** A flow motif instance as a Spark row: the vertex mapping, its flow
  * (Equation 1), its temporal extent, and its edge-sets.
  */
final case class InstanceRow(
    vs: Seq[Long],
    flow: Double,
    tStart: Long,
    tEnd: Long,
    sets: Seq[Seq[TF]]
)

/** The paper's two-phase flow motif search, distributed:
  * P1 = [[StructuralMatcher]] (DataFrame joins); P2 = [[LocalEnumerator]]
  * (Algorithm 1) run per structural match inside a typed `flatMap`, after the
  * per-edge interaction series are attached to each match by m more joins
  * against the time-series graph.
  */
object FlowMotifSearch {

  /** Phase P1 + series attachment: one [[MatchRow]] per structural match. */
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    val tsg = TimeSeriesGraph.build(edges).cache()
    val m = StructuralMatcher.matches(TimeSeriesGraph.pairs(edges), motif)
    val withSeries = motif.edges.zipWithIndex.foldLeft(m) { case (df, ((a, b), i)) =>
      val t = tsg.select(col("src").as(s"_a$i"), col("dst").as(s"_b$i"), col("series").as(s"s$i"))
      df.join(t, col(StructuralMatcher.vcol(a)) === col(s"_a$i") &&
                 col(StructuralMatcher.vcol(b)) === col(s"_b$i"))
        .drop(s"_a$i", s"_b$i")
    }
    val vsCol = array(motif.vertexIds.map(i => col(StructuralMatcher.vcol(i))): _*)
    val seriesCol = array((0 until motif.m).map(i => col(s"s$i")): _*)
    withSeries.select(vsCol.as("vs"), seriesCol.as("series")).as[MatchRow]
  }

  /** All maximal instances of `(motif, δ, φ)` in the interaction network.
    *
    * @param edges interaction multigraph: (src, dst, t, f)
    */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    matchRows(spark, edges, motif).flatMap { mr =>
      val series = mr.series.map(_.toIndexedSeq).toIndexedSeq
      LocalEnumerator.enumerate(series, delta, phi).map { inst =>
        InstanceRow(mr.vs, inst.flow, inst.tStart, inst.tEnd, inst.sets)
      }
    }
  }

  /** Number of maximal instances (count-only fast path). */
  def countInstances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = {
    import spark.implicits._
    val counts = matchRows(spark, edges, motif)
      .map(mr => LocalEnumerator.count(mr.series.map(_.toIndexedSeq).toIndexedSeq, delta, phi))
    counts.toDF("n").agg(coalesce(sum("n"), lit(0L)).as("total")).head.getLong(0)
  }
}
