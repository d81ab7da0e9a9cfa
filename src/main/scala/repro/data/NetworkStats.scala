package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Dataset statistics of the paper's Table 3. */
object NetworkStats {

  final case class Stats(nodes: Long, connectedPairs: Long, edges: Long, avgFlow: Double)

  /** (#nodes, #connected node pairs = |E_T|, #edges, average flow per edge),
    * read from [[statsDf]] in one query; the average flow is rounded to 6 decimals.
    */
  def stats(edges: DataFrame): Stats = {
    val row = statsDf(edges).head()
    Stats(row.getLong(0), row.getLong(1), row.getLong(2), row.getDouble(3))
  }

  /** Single-row DataFrame with the Table 3 columns, checked against DuckDB. */
  def statsDf(edges: DataFrame): DataFrame = {
    val nodes = edges.select(col("src").as("v"))
      .unionByName(edges.select(col("dst").as("v")))
      .agg(countDistinct(col("v")).as("nodes"))
    val pairsAndEdges = edges.agg(
      countDistinct(col("src"), col("dst")).as("connected_pairs"),
      count(lit(1)).as("edges"),
      round(avg(col("f")), 6).as("avg_flow")
    )
    nodes.crossJoin(pairsAndEdges)
  }
}
