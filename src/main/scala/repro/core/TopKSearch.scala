package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each structural match computes its local top-k with the floating-threshold
  * enumerator (or its top-1 flow with the DP module); the global answer is the
  * k best of those candidates — a standard per-group top-k followed by a tiny
  * global merge, so only O(k · |S|) candidate rows are shuffled.
  */
object TopKSearch {

  /** The k highest-flow maximal instances (φ = 0), best first. */
  def topK(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      k: Int
  ): Seq[InstanceRow] = {
    import spark.implicits._
    require(delta >= 0, s"delta must be non-negative, got $delta")
    require(k >= 1, s"k must be >= 1, got $k")
    FlowMotifSearch.withGraph(edges) { g =>
      FlowMotifSearch.perMatch(spark, g, motif) { (vs, series) =>
        TopKEnumerator.topK(series, delta, k).map(i => InstanceRow(vs, i.flow, i.tStart, i.tEnd, i.sets))
      }.orderBy($"flow".desc).limit(k).collect().toSeq
    }
  }

  /** Top-1 instance flow via the dynamic-programming module (Algorithm 2). */
  def maxFlowDP(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long
  ): Double = {
    import spark.implicits._
    require(delta >= 0, s"delta must be non-negative, got $delta")
    FlowMotifSearch.withGraph(edges) { g =>
      val flows = FlowMotifSearch.perMatch(spark, g, motif)((_, series) => Iterator.single(MaxFlowDP.maxFlow(series, delta)))
      flows.toDF("mf").agg(coalesce(max("mf"), lit(0.0)).as("best")).head().getDouble(0)
    }
  }
}
