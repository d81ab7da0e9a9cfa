package repro.core

import org.apache.spark.broadcast.Broadcast
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

/** The paper's two-phase flow motif search, distributed: the interactions
  * are collected to the driver as a [[Csr]] of `G_T` and broadcast, and
  * nothing is cached; P1 = [[StructuralMatcher]]'s
  * DFS over it, which picks up each match's per-edge interaction series as
  * it walks; P2 = [[LocalEnumerator]] (Algorithm 1) runs per structural match
  * in the same Spark tasks. Nothing is shuffled before the final aggregate.
  */
object FlowMotifSearch {

  /** Phase P1 with the series attached: one [[MatchRow]] per structural match.
    *
    * The interactions are collected straight into a CSR (see
    * [[TimeSeriesGraph.collectCsr]], which also checks them) and broadcast;
    * nothing is cached. The collect is bounded by
    * `spark.driver.maxResultSize`, and a larger input fails with Spark's
    * error, which states the size. The result is lazy, so the broadcast is
    * released by Spark's ContextCleaner once the Dataset is unreachable.
    */
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] =
    rows(spark, broadcastGraph(spark, edges), motif)

  /** Runs `action` on the match rows, then destroys the broadcast `G_T`. */
  private[core] def withMatchRows[A](spark: SparkSession, edges: DataFrame, motif: Motif)(
      action: Dataset[MatchRow] => A): A = {
    val g = broadcastGraph(spark, edges)
    try action(rows(spark, g, motif)) finally g.destroy()
  }

  private def broadcastGraph(spark: SparkSession, edges: DataFrame): Broadcast[Csr] =
    spark.sparkContext.broadcast(TimeSeriesGraph.collectCsr(edges))

  private def rows(spark: SparkSession, g: Broadcast[Csr], motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    StructuralMatcher.walk(spark, g, motif) { (vs, es) =>
      val csr = g.value
      MatchRow(vs.toSeq, es.toSeq.map(csr.series))
    }
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
    withMatchRows(spark, edges, motif) { rows =>
      val counts = rows.map(mr => LocalEnumerator.count(mr.series.map(_.toIndexedSeq).toIndexedSeq, delta, phi))
      counts.toDF("n").agg(coalesce(sum("n"), lit(0L)).as("total")).head().getLong(0)
    }
  }
}
