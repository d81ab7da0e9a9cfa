package repro.baseline

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One candidate edge-set of a motif edge: a contiguous run of interactions
  * on graph edge `(src, dst)` spanning `[ts, te]` (both endpoints are actual
  * interaction timestamps), with aggregated flow `f`.
  */
final case class Quintuple(src: Long, dst: Long, ts: Long, te: Long, f: Double)

/** A fully-joined motif candidate prior to the maximality filter. */
final case class BaselineRow(
    vs: Seq[Long],
    ts: Seq[Long],
    te: Seq[Long],
    fs: Seq[Double],
    series: Seq[Seq[TF]]
)

/** The competitor of Section 6.2.1: build motif instances bottom-up by
  * joining interval quintuples.
  *
  * Step 1 generates, per `G_T` edge, every time interval of length ≤ δ (all
  * contiguous runs of the edge's series) with its aggregated flow — the
  * quintuples `(u, v, t_s, t_e, f)`. Step 2 merge-joins them along the
  * spanning path, one join per motif edge, checking consecutive temporal
  * ordering, the running duration bound, vertex bindings and (for cyclic
  * motifs) cycle closure. This materializes every sub-motif instance — the
  * intermediate blowup the paper blames for the baseline's slowness. A final
  * filter keeps only maximal instances so the output matches the two-phase
  * algorithm row-for-row.
  */
object JoinBaseline {

  /** All contiguous runs with span ≤ δ and flow ≥ φ, per `G_T` edge. */
  def quintuples(
      spark: SparkSession,
      edges: DataFrame,
      delta: Long,
      phi: Double
  ): Dataset[Quintuple] = {
    import spark.implicits._
    TimeSeriesGraph.build(edges)
      .toDF("_1", "_2", "_3")
      .as[(Long, Long, Seq[TF])]
      .flatMap { case (u, v, seriesRaw) =>
        val s = seriesRaw.toIndexedSeq
        // A run must contain *all* elements in [ts, te]; never split a group
        // of equal timestamps (an edge-set that splits a tie can't be maximal).
        for {
          i <- s.indices
          if i == 0 || s(i - 1).t != s(i).t
          j <- i until s.length
          if s(j).t - s(i).t <= delta
          if j == s.length - 1 || s(j + 1).t != s(j).t
          f = s.slice(i, j + 1).map(_.f).sum
          if f >= phi
        } yield Quintuple(u, v, s(i).t, s(j).t, f)
      }
  }

  /** All maximal instances, as [[InstanceRow]]s (sets omitted). */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    val q = quintuples(spark, edges, delta, phi).toDF()
    val tsg = TimeSeriesGraph.build(edges)

    def vcol(i: Int) = StructuralMatcher.vcol(i)
    def qAlias(i: Int) =
      q.select(col("src").as(s"_qa$i"), col("dst").as(s"_qb$i"),
               col("ts").as(s"ts$i"), col("te").as(s"te$i"), col("f").as(s"f$i"))

    val (a0, b0) = motif.edges.head
    var df = qAlias(0)
      .withColumnRenamed(s"_qa0", vcol(a0))
      .withColumnRenamed(s"_qb0", vcol(b0))
    var bound = Set(a0, b0)
    for (step <- 1 until motif.m) {
      val (a, b) = motif.edges(step)
      df = df.join(qAlias(step), col(vcol(a)) === col(s"_qa$step"))
      df =
        if (bound(b)) df.where(col(s"_qb$step") === col(vcol(b))).drop(s"_qa$step", s"_qb$step")
        else { bound += b; df.withColumn(vcol(b), col(s"_qb$step")).drop(s"_qa$step", s"_qb$step") }
      // consecutive temporal ordering + running duration bound (δ)
      df = df.where(col(s"te${step - 1}") < col(s"ts$step") &&
                    col(s"te$step") - col("ts0") <= delta)
    }
    val vids = motif.vertexIds
    val distinctness = for { i <- vids; j <- vids if i < j } yield col(vcol(i)) =!= col(vcol(j))
    df = df.where(distinctness.reduceOption(_ && _).getOrElse(lit(true)))

    // Attach the full series per motif edge for the maximality filter.
    for (((a, b), i) <- motif.edges.zipWithIndex) {
      val t = tsg.select(col("src").as(s"_sa$i"), col("dst").as(s"_sb$i"), col("series").as(s"s$i"))
      df = df.join(t, col(vcol(a)) === col(s"_sa$i") && col(vcol(b)) === col(s"_sb$i"))
        .drop(s"_sa$i", s"_sb$i")
    }

    val m = motif.m
    val rows = df.select(
      array(vids.map(i => col(vcol(i))): _*).as("vs"),
      array((0 until m).map(i => col(s"ts$i")): _*).as("ts"),
      array((0 until m).map(i => col(s"te$i")): _*).as("te"),
      array((0 until m).map(i => col(s"f$i")): _*).as("fs"),
      array((0 until m).map(i => col(s"s$i")): _*).as("series")
    ).as[BaselineRow]

    rows
      .filter(r => isMaximal(r, delta))
      .map(r => InstanceRow(r.vs, r.fs.min, r.ts.head, r.te.last, Seq.empty))
  }

  /** Maximality of a joined candidate w.r.t. the full per-edge series:
    * no interaction of edge i or i+1 falls strictly between consecutive
    * edge-set extents, no e_1 interaction could be prepended within δ of the
    * instance end, and no e_m interaction could be appended within δ of the
    * instance start. Runs are contiguous by construction, so these boundary
    * conditions are exactly Definition 3.3.
    */
  private[baseline] def isMaximal(r: BaselineRow, delta: Long): Boolean = {
    val m = r.ts.length
    val tEnd = r.te(m - 1)
    val tStart = r.ts.head
    // Differences, not `tStart + delta`, so a large δ cannot overflow.
    val noPrefix = !r.series.head.exists(x => tEnd - x.t <= delta && x.t < tStart)
    val noSuffix = !r.series(m - 1).exists(x => x.t > tEnd && x.t - tStart <= delta)
    val noGaps = (0 until m - 1).forall { i =>
      val lo = r.te(i); val hi = r.ts(i + 1)
      !r.series(i).exists(x => x.t > lo && x.t < hi) &&
      !r.series(i + 1).exists(x => x.t > lo && x.t < hi)
    }
    noPrefix && noSuffix && noGaps
  }

  /** Number of maximal instances via the baseline pipeline. */
  def count(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = instances(spark, edges, motif, delta, phi).count()
}
