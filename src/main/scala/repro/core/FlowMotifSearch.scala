package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._

/** A structural match bundled with its per-motif-edge time series, as
  * [[FlowMotifSearch.matchRows]] returns it. `vs(i)` is the graph vertex
  * mapped to motif vertex `i`; `series(i)` is `R(e_{i+1})`.
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
  * nothing is cached; P1 = [[StructuralMatcher]]'s DFS over it; P2 =
  * [[LocalEnumerator]] (Algorithm 1) runs per structural match in the same
  * Spark tasks, on the match's series read straight from the CSR, where
  * [[TimeSeriesGraph.collectCsr]] sorted them. Nothing is shuffled before the
  * final aggregate. Query parameters are checked on the driver, before any
  * Spark job.
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
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    perMatch(spark, broadcastGraph(edges), motif)((vs, series) => Iterator.single(MatchRow(vs, series)))
  }

  /** Runs `action` on the broadcast CSR of `edges`, then destroys it. */
  private[core] def withGraph[A](edges: DataFrame)(action: Broadcast[Csr] => A): A = {
    val g = broadcastGraph(edges)
    try action(g) finally g.destroy()
  }

  private def broadcastGraph(edges: DataFrame): Broadcast[Csr] =
    edges.sparkSession.sparkContext.broadcast(TimeSeriesGraph.collectCsr(edges))

  /** Everything `p2(vs, series)` yields over the structural matches of
    * `motif`: `vs(i)` is the graph vertex mapped to motif vertex `i`,
    * `series(i)` is `R(e_{i+1})`, read from the CSR as it is laid out.
    */
  private[core] def perMatch[T: Encoder](spark: SparkSession, g: Broadcast[Csr], motif: Motif)(
      p2: (Seq[Long], IndexedSeq[IndexedSeq[TF]]) => IterableOnce[T]): Dataset[T] =
    StructuralMatcher.walk(spark, g, motif) { (vs, es) =>
      val csr = g.value
      p2(vs.toSeq, es.toIndexedSeq.map(csr.series))
    }

  /** All maximal instances of `(motif, δ, φ)` in the interaction network.
    * Lazy, like [[matchRows]].
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
    require(delta >= 0, s"delta must be non-negative, got $delta")
    perMatch(spark, broadcastGraph(edges), motif) { (vs, series) =>
      LocalEnumerator.enumerate(series, delta, phi).map { inst =>
        InstanceRow(vs, inst.flow, inst.tStart, inst.tEnd, inst.sets)
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
    require(delta >= 0, s"delta must be non-negative, got $delta")
    withGraph(edges) { g =>
      val counts = perMatch(spark, g, motif)((_, series) => Iterator.single(LocalEnumerator.count(series, delta, phi)))
      counts.toDF("n").agg(coalesce(sum("n"), lit(0L)).as("total")).head().getLong(0)
    }
  }
}
