package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Motif
import repro.core.MotifCatalog._
import repro.data.InteractionGen

/** One query of a workload's fixed list. `kind` is one of `search`
  * (`FlowMotifSearch.countInstances`), `topk` (`TopKSearch.topK`), `top1_dp`
  * (`TopKSearch.maxFlowDP`) or `significance` (`Significance.study`).
  */
final case class Query(kind: String, motif: Motif) {
  def id: String = s"$kind:${motif.name}"
}

/** A workload: a generated network, its (δ, φ) and the query list that one
  * pass issues in order. `nRandom` is the significance study's R.
  * `nominalPassS` fixes how many passes a run of a given length makes, so two
  * commits always measure the same amount of work; `warmupPasses` run before
  * them, untimed except as part of the set-up.
  */
final case class Workload(
    name: String,
    delta: Long,
    phi: Double,
    k: Int,
    nRandom: Int,
    queries: Seq[Query],
    nominalPassS: Double,
    warmupPasses: Int,
    network: (SparkSession, Long) => DataFrame
) {
  def motifs: Seq[Motif] = queries.map(_.motif).distinct
}

object Workloads {
  val names: Seq[String] = Seq("bitcoin-sparse", "dense-windows", "facebook-significance")

  /** The workload `name`; `tiny` shrinks every input for the self-test. */
  def apply(name: String, tiny: Boolean): Workload = name match {
    case "bitcoin-sparse" =>
      Workload(name, delta = 600L, phi = 5.0, k = 10, nRandom = 0,
        queries = Seq(Query("search", M54), Query("topk", M33), Query("top1_dp", M33)),
        nominalPassS = 12.0,
        warmupPasses = 1,
        network = (spark, seed) =>
          InteractionGen.generate(spark, InteractionGen.bitcoinConfig(if (tiny) 0.02 else 1.0, seed)))
    case "dense-windows" =>
      Workload(name, delta = 900L, phi = if (tiny) 20.0 else 200.0, k = 10, nRandom = 0,
        queries = Seq(Query("search", M32), Query("topk", M32), Query("top1_dp", M32)),
        nominalPassS = 10.0,
        warmupPasses = 1,
        network = (spark, seed) => redrawFlows(InteractionGen.generate(spark,
          InteractionGen.passengerConfig().copy(nPairs = 40, nBackground = if (tiny) 4000L else 100000L)), seed))
    case "facebook-significance" =>
      Workload(name, delta = 600L, phi = 3.0, k = 10, nRandom = if (tiny) 1 else 2,
        queries = Seq(Query("significance", M32)),
        nominalPassS = 7.0,
        warmupPasses = 2,
        // One fixed network; the seed drives the study's permutations.
        network = (spark, _) =>
          InteractionGen.generate(spark, InteractionGen.facebookConfig(if (tiny) 0.02 else 1.0)))
    case other => throw new IllegalArgumentException(s"unknown workload $other; expected one of ${names.mkString(", ")}")
  }

  /** The same interactions with every flow drawn again from `seed`, from the
    * passenger-like background distribution (⌈0.5 + Exp(mean 1.1)⌉, capped
    * at 6). The dense workload keeps its topology and timestamps fixed: its P2
    * load sits in a handful of heavily occupied matches, and how many of those
    * a random topology yields varies too much from seed to seed.
    */
  private def redrawFlows(edges: DataFrame, seed: Long): DataFrame = {
    val u = pmod(xxhash64(col("src"), col("dst"), col("t"), col("f"), lit(seed)), lit(1000000007L))
      .cast("double") / 1000000007.0
    edges.withColumn("f", ceil(least(lit(0.5) - log(lit(1.0) - u) * 1.1, lit(6.0))).cast("double"))
  }
}
