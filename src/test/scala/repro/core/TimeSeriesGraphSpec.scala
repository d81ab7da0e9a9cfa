package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Multigraph -> time-series graph conversion (Section 4, Figure 5). */
class TimeSeriesGraphSpec extends SparkSpec {

  private lazy val fig2 = TestGraphs.toDf(spark, TestGraphs.fig2Edges).cache()

  test("parallel edges merge into one series per connected pair (Figure 5)") {
    val tsg = TimeSeriesGraph.build(fig2).collect()
    assert(tsg.length == 3)
    val row = tsg.find(r => r.getLong(0) == 1L && r.getLong(1) == 2L).get
    val series = row.getSeq[org.apache.spark.sql.Row](2).map(r => (r.getLong(0), r.getDouble(1)))
    assert(series == Seq((13L, 5.0), (15L, 7.0)))
  }

  test("series are sorted by timestamp even when input is shuffled") {
    val shuffled = TestGraphs.toDf(spark, new scala.util.Random(1).shuffle(TestGraphs.fig2Edges))
    val row = TimeSeriesGraph.build(shuffled)
      .where(col("src") === 1 && col("dst") === 2).head()
    val series = row.getSeq[org.apache.spark.sql.Row](2).map(_.getLong(0))
    assert(series == Seq(13L, 15L))
  }

  test("self-loop interactions are dropped") {
    val withLoop = TestGraphs.toDf(spark,
      TestGraphs.fig2Edges :+ TestGraphs.Edge(1, 1, 99, 1.0))
    assert(TimeSeriesGraph.build(withLoop).count() == 3)
    assert(TimeSeriesGraph.pairs(withLoop).count() == 3)
  }

  test("pairs() equals DuckDB's distinct pair count (oracle)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(8, 80, 100, 9, seed = 11))
    val got = TimeSeriesGraph.pairs(edges).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS n FROM (SELECT DISTINCT src, dst FROM edges WHERE src <> dst)",
      "edges" -> edges)
  }

  test("per-pair series lengths equal DuckDB group sizes (oracle)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(6, 60, 80, 9, seed = 12))
    val got = TimeSeriesGraph.build(edges)
      .select(col("src"), col("dst"), size(col("series")).as("n"))
    Oracle.assertEquivalent(got,
      "SELECT src, dst, count(*) AS n FROM edges WHERE src <> dst GROUP BY src, dst",
      "edges" -> edges)
  }

  test("per-pair flow sums equal DuckDB aggregation (oracle)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(6, 60, 80, 9, seed = 13))
    val got = TimeSeriesGraph.build(edges)
      .select(col("src"), col("dst"),
        aggregate(col("series"), lit(0.0), (acc, x) => acc + x.getField("f")).as("total"))
    Oracle.assertEquivalent(got,
      "SELECT src, dst, sum(CAST(f AS DOUBLE)) AS total FROM edges WHERE src <> dst GROUP BY src, dst",
      "edges" -> edges)
  }

  test("empty input produces an empty time-series graph") {
    val empty = TestGraphs.toDf(spark, Vector.empty[TestGraphs.Edge])
    assert(TimeSeriesGraph.build(empty).count() == 0)
  }

  test("collectCsr: sorted rows, binary-searched lookups, series per edge") {
    val edges = TestGraphs.fig2Edges :+ TestGraphs.Edge(Long.MinValue, 3, 7, 2.0) :+
      TestGraphs.Edge(1, Long.MaxValue, 8, 1.0) :+ TestGraphs.Edge(1, 1, 9, 1.0)
    val df = TestGraphs.toDf(spark, edges)
    val g = TimeSeriesGraph.collectCsr(df)
    assert(g.src.toSeq == Seq(Long.MinValue, 1L, 2L, 3L))
    assert(g.offsets.toSeq == Seq(0, 1, 3, 4, 5))
    assert(g.dst.toSeq == Seq(3L, 2L, Long.MaxValue, 3L, 1L))
    assert(g.row(Long.MaxValue) == -1 && g.row(Long.MinValue) == 0)
    assert(g.edge(g.row(1), 2) == 1 && g.edge(g.row(1), 3) == -1)
    assert(g.series(1) == Seq(TF(13, 5.0), TF(15, 7.0)))
    // The distinct pairs, one interaction each, give the same layout.
    val p = TimeSeriesGraph.collectCsr(TimeSeriesGraph.pairs(df).select(col("src"), col("dst"),
      lit(0L).as("t"), lit(1.0).as("f")))
    assert(p.src.toSeq == g.src.toSeq && p.dst.toSeq == g.dst.toSeq && p.offsets.toSeq == g.offsets.toSeq)
  }

  test("collectCsr series == build's series, with timestamp ties, under any partitioning") {
    val rnd = new scala.util.Random(14)
    // Few timestamps and flows per pair, so ties in t, and in (t, f), are common.
    val edges = Vector.fill(300)(TestGraphs.Edge(rnd.nextInt(6), rnd.nextInt(6), rnd.nextInt(8),
      rnd.nextInt(4) + 1.0))
    val df = TestGraphs.toDf(spark, edges)
    val expected = TimeSeriesGraph.build(df).collect().map { r =>
      (r.getLong(0), r.getLong(1)) -> r.getSeq[org.apache.spark.sql.Row](2).map(x => TF(x.getLong(0), x.getDouble(1)))
    }.toMap
    for (input <- Seq(df, df.repartition(1), df.repartition(13))) {
      val g = TimeSeriesGraph.collectCsr(input)
      val got = (0 until g.numSources).flatMap { r =>
        (g.offsets(r) until g.offsets(r + 1)).map(e => (g.src(r), g.dst(e)) -> g.series(e))
      }
      assert(got.size == expected.size && got.toMap == expected)
    }
  }
}
