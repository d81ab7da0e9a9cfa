package perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.Randomizer
import repro.stats.Significance

/** Measures one workload and writes the raw measurements as JSON to `--out`;
  * `run.py` builds this program, runs it, checks the answers and prints the
  * metrics.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --cores <n> --local-dir <dir> --out <file> [--scale tiny]`
  *
  * Untraced (`--trace 0`): session start, input set-up three times, the
  * workload's warm-up passes, then `--seconds / nominalPassS` timed passes. Traced
  * (`--trace 1`): the same set-up and warm-up, then a traced and an untraced
  * pass (the tracing overhead is their difference; the traced pass runs
  * first, so warm-up drift can only inflate it), then a layer-by-layer
  * decomposition of every query with spans and a Spark listener.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = Workloads(opts("workload"), opts.getOrElse("scale", "full") == "tiny")
    val seed = opts("seed").toLong
    val budget = opts("seconds").toDouble
    val traced = opts("trace") == "1"
    val cores = opts("cores").toInt

    val t0 = System.nanoTime()
    // The session `jobs/JobSession` builds, with Spark's defaults pinned:
    // broadcast joins on, 200 shuffle partitions, adaptive execution.
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", opts("local-dir"))
      .config("spark.sql.autoBroadcastJoinThreshold", "10MB")
      .config("spark.sql.shuffle.partitions", "200")
      .config("spark.sql.adaptive.enabled", "true")
      .getOrCreate()
    try {
      val sessionS = (System.nanoTime() - t0) / 1e9
      val result = new Bench(spark, w, seed).run(budget, traced)
      val env = Map(
        "master" -> spark.sparkContext.master,
        "cores" -> cores,
        "default_parallelism" -> spark.sparkContext.defaultParallelism,
        "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark_version" -> spark.version,
        "spark_conf" -> Seq("spark.sql.autoBroadcastJoinThreshold", "spark.sql.shuffle.partitions",
          "spark.sql.adaptive.enabled").map(k => k -> spark.conf.get(k)).toMap
      )
      val json = Map("workload" -> w.name, "seed" -> seed, "traced" -> traced,
        "session_s" -> sessionS, "env" -> env) ++ result
      new ObjectMapper().registerModule(DefaultScalaModule).writeValue(new File(opts("out")), json)
    } finally spark.stop()
  }
}

/** The measurement of one workload on one session. */
final class Bench(spark: SparkSession, w: Workload, seed: Long) {
  import spark.implicits._

  private def now: Long = System.nanoTime()
  private def secondsSince(t0: Long): Double = (now - t0) / 1e9
  private def timed[A](body: => A): (A, Double) = { val t0 = now; val a = body; (a, secondsSince(t0)) }

  private var edges: DataFrame = _
  // `Significance.study` permutes with studySeed + r for r < R; spacing the
  // workload seeds 1000 apart keeps their permutations disjoint.
  private val studySeed = seed * 1000
  private val tracer = new Tracer(spark.sparkContext)
  private val listener = new LayerListener

  /** Storage memory held by cached RDDs: (MB, number of cached RDDs). */
  private def storage(): (Double, Int) = {
    val infos = spark.sparkContext.getRDDStorageInfo.filter(_.isCached)
    (infos.map(i => i.memSize + i.diskSize).sum / 1048576.0, infos.length)
  }

  /** Drop every cached plan (the program's `G_T` copies too) and cache the input again. */
  private def resetCache(): Unit = {
    spark.catalog.clearCache()
    edges.cache()
    edges.count()
  }

  def run(budget: Double, traced: Boolean): Map[String, Any] = {
    if (traced) spark.sparkContext.addSparkListener(listener)
    val inputS = (1 to 3).map { _ =>
      spark.catalog.clearCache()
      timed { edges = w.network(spark, seed).cache(); edges.count() }._2
    }
    val fingerprint = Map(
      "interactions" -> edges.count(),
      "pairs" -> TimeSeriesGraph.pairs(edges).count(),
      "flow_sum" -> edges.agg(sum("f")).head().getDouble(0))
    val warmups = (1 to w.warmupPasses).map(_ => pass("warmup", trace = false))
    val passes = ArrayBuffer.empty[Map[String, Any]]
    var layers = Map.empty[String, Any]
    var driverAnswers = Map.empty[String, Any]
    if (!traced) {
      val n = math.max(1, math.round(budget / w.nominalPassS).toInt)
      for (_ <- 1 to n) passes += pass("timed", trace = false)
    } else {
      passes += pass("traced", trace = true)
      passes += pass("untraced", trace = false)
      val (l, d) = decompose(passes.head)
      layers = l
      driverAnswers = d
    }
    Map("input_s" -> inputS, "fingerprint" -> fingerprint, "warmups" -> warmups,
      "passes" -> passes.toSeq, "layers" -> layers, "driver_answers" -> driverAnswers) ++
      (if (traced) Map("spans" -> tracer.toJson, "job_groups" -> listener.toJson(spark.sparkContext))
       else Map.empty)
  }

  private def answer(q: Query): Map[String, Any] = q.kind match {
    case "search" =>
      Map("count" -> FlowMotifSearch.countInstances(spark, edges, q.motif, w.delta, w.phi))
    case "topk" =>
      Map("flows" -> TopKSearch.topK(spark, edges, q.motif, w.delta, w.k).map(_.flow))
    case "top1_dp" =>
      Map("flow" -> TopKSearch.maxFlowDP(spark, edges, q.motif, w.delta))
    case "significance" =>
      val s = Significance.study(spark, edges, q.motif, w.delta, w.phi, w.nRandom, studySeed)
      Map("real" -> s.real, "random" -> s.randomCounts)
  }

  /** One pass over the query list, from a cache holding only the input. */
  private def pass(label: String, trace: Boolean): Map[String, Any] = {
    resetCache()
    val records = w.queries.map { q =>
      val entriesBefore = storage()._2
      val t0 = now
      val (ans, err) =
        try {
          val a = if (trace) tracer.span(s"query.${q.kind}", "motif" -> q.motif.name)(answer(q)) else answer(q)
          (Some(a), None)
        } catch { case NonFatal(e) => (None, Some(e.toString)) }
      Map("id" -> q.id, "kind" -> q.kind, "seconds" -> secondsSince(t0), "answer" -> ans,
        "error" -> err, "new_cache_entries" -> (storage()._2 - entriesBefore))
    }
    val (mb, entries) = storage()
    Map("label" -> label, "seconds" -> records.map(_("seconds").asInstanceOf[Double]).sum,
      "queries" -> records, "cache_retained_mb" -> mb, "cache_entries" -> entries)
  }

  private def seriesOf(mr: MatchRow): IndexedSeq[IndexedSeq[TF]] =
    mr.series.map(_.toIndexedSeq).toIndexedSeq

  /** Each layer called on its own, in pipeline order, inside spans; P2 also
    * runs alone on the driver over the collected match rows. Returns the
    * per-layer metrics and the driver-side answers for cross-checking.
    */
  private def decompose(tracedPass: Map[String, Any]): (Map[String, Any], Map[String, Any]) = {
    val sc = spark.sparkContext
    val tr = tracer
    resetCache()
    val gt = tr.span("TimeSeriesGraph.build", "network" -> "real") {
      val g = TimeSeriesGraph.build(edges).cache(); g.count(); g
    }
    val pairs = gt.count()
    val seriesLenMax = gt.agg(max(size(col("series")))).head().getInt(0)
    if (w.queries.exists(_.kind == "significance")) for (r <- 0 until w.nRandom) {
      val permuted = tr.span("Randomizer.permuteFlows", "r" -> r.toString) {
        val p = Randomizer.permuteFlows(edges, studySeed + r).cache(); p.count(); p
      }
      tr.span("TimeSeriesGraph.build", "network" -> s"permuted-$r") {
        TimeSeriesGraph.build(permuted).cache().count()
      }
    }

    val tracedQueries = tracedPass("queries").asInstanceOf[Seq[Map[String, Any]]]
    val driverAnswers = Map.newBuilder[String, Any]
    var nMatches = 0L
    var instances = 0L
    val p2TaskS = ArrayBuffer.empty[Double]
    val occupancy = ArrayBuffer.empty[Int]
    var p2S = 0.0
    val queryP2S = collection.mutable.Map("topk" -> 0.0, "top1_dp" -> 0.0)
    for (m <- w.motifs) {
      val kinds = w.queries.filter(_.motif == m).map(_.kind).toSet
      val searched = kinds("search") || kinds("significance")
      nMatches += tr.span("StructuralMatcher.matches", "motif" -> m.name) {
        StructuralMatcher.matches(TimeSeriesGraph.pairs(edges), m).count()
      }
      val (_, matchRowsS) = timed(tr.span("FlowMotifSearch.matchRows", "motif" -> m.name) {
        FlowMotifSearch.matchRows(spark, edges, m).write.format("noop").mode("overwrite").save()
      })
      // P2 inside Spark tasks, timed per partition, with the match rows
      // collected for the driver-only runs below.
      val (delta, phi) = (w.delta, w.phi)
      val parts = tr.span("FlowMotifSearch.p2_tasks", "motif" -> m.name) {
        FlowMotifSearch.matchRows(spark, edges, m).mapPartitions { it =>
          val rows = it.toVector
          val t0 = System.nanoTime()
          if (searched) rows.foreach(mr => LocalEnumerator.count(mr.series.map(_.toIndexedSeq).toIndexedSeq, delta, phi))
          Iterator((System.nanoTime() - t0, rows))
        }.collect()
      }
      if (searched) p2TaskS ++= parts.map(_._1 / 1e9)
      val rows = parts.flatMap(_._2).map(seriesOf).toSeq
      if (searched) {
        val (n, countS) = timed(tr.span("FlowMotifSearch.countInstances", "motif" -> m.name) {
          FlowMotifSearch.countInstances(spark, edges, m, w.delta, w.phi)
        })
        p2S += countS - matchRowsS
        driverAnswers += s"spark.search:${m.name}" -> Map("count" -> n)
        val local = tr.span("LocalEnumerator.count", "motif" -> m.name) {
          rows.map(LocalEnumerator.count(_, w.delta, w.phi)).sum
        }
        instances += local
        driverAnswers += s"search:${m.name}" -> Map("count" -> local)
        rows.foreach(windowOccupancy(_, w.delta, occupancy))
      }
      // P2 share of the traced top-k and DP queries: their time minus matchRows.
      for (q <- tracedQueries if q("id") == s"topk:${m.name}" || q("id") == s"top1_dp:${m.name}")
        queryP2S(q("kind").toString) += q("seconds").asInstanceOf[Double] - matchRowsS
      if (kinds("topk")) {
        val flows = tr.span("TopKEnumerator.topK", "motif" -> m.name) {
          rows.flatMap(TopKEnumerator.topK(_, w.delta, w.k).map(_.flow)).sortBy(-_).take(w.k)
        }
        driverAnswers += s"topk:${m.name}" -> Map("flows" -> flows)
      }
      if (kinds("top1_dp")) {
        val best = tr.span("MaxFlowDP.maxFlow", "motif" -> m.name) {
          rows.map(MaxFlowDP.maxFlow(_, w.delta)).foldLeft(0.0)(math.max)
        }
        driverAnswers += s"top1_dp:${m.name}" -> Map("flow" -> best)
      }
    }

    def querySeconds(kind: String): Double =
      tracedQueries.filter(_("kind") == kind).map(_("seconds").asInstanceOf[Double]).sum
    val searchesPerStudy = tracedQueries.filter(_("kind") == "significance").flatMap(_("answer") match {
      case Some(a: Map[_, _]) => Some(1 + a.asInstanceOf[Map[String, Any]]("random").asInstanceOf[Seq[_]].size)
      case _                  => None
    })
    val sorted = occupancy.sorted
    val group = listener.get(sc, _)
    val matchesS = tr.seconds("StructuralMatcher.matches")
    val matchRowsS = tr.seconds("FlowMotifSearch.matchRows")
    val layers = Map[String, Any](
      "TimeSeriesGraph.build_s" -> tr.seconds("TimeSeriesGraph.build"),
      "TimeSeriesGraph.shuffle_mb" -> group("TimeSeriesGraph.build").shuffleBytes / 1048576.0,
      "TimeSeriesGraph.pairs" -> pairs,
      "TimeSeriesGraph.series_len_max" -> seriesLenMax,
      "TimeSeriesGraph.new_cache_entries" -> tracedQueries.map(_("new_cache_entries").asInstanceOf[Int]).sum,
      "StructuralMatcher.matches_s" -> matchesS,
      "StructuralMatcher.matches" -> nMatches,
      "StructuralMatcher.stages" -> group("StructuralMatcher.matches").stages,
      "StructuralMatcher.shuffle_mb" -> group("StructuralMatcher.matches").shuffleBytes / 1048576.0,
      "FlowMotifSearch.match_rows_s" -> matchRowsS,
      "FlowMotifSearch.attach_s" -> (matchRowsS - matchesS),
      "FlowMotifSearch.shuffle_mb" -> group("FlowMotifSearch.matchRows").shuffleBytes / 1048576.0,
      "FlowMotifSearch.p2_s" -> p2S,
      "FlowMotifSearch.p2_task_max_s" -> (if (p2TaskS.isEmpty) 0.0 else p2TaskS.max),
      "FlowMotifSearch.p2_task_sum_s" -> p2TaskS.sum,
      "TopKSearch.topk_p2_s" -> queryP2S("topk"),
      "TopKSearch.dp_p2_s" -> queryP2S("top1_dp"),
      "LocalEnumerator.count_s" -> tr.seconds("LocalEnumerator.count"),
      "LocalEnumerator.instances" -> instances,
      "LocalEnumerator.occupancy_p50" -> (if (sorted.isEmpty) 0 else sorted(sorted.length / 2)),
      "TopKEnumerator.topk_s" -> tr.seconds("TopKEnumerator.topK"),
      "MaxFlowDP.max_flow_s" -> tr.seconds("MaxFlowDP.maxFlow"),
      "Randomizer.permute_s" -> tr.seconds("Randomizer.permuteFlows"),
      "Randomizer.task_max_s" -> group("Randomizer.permuteFlows").maxTaskMs / 1e3,
      "Randomizer.shuffle_mb" -> group("Randomizer.permuteFlows").shuffleBytes / 1048576.0,
      "Significance.searches" ->
        (if (searchesPerStudy.isEmpty) 0.0 else searchesPerStudy.sum.toDouble / searchesPerStudy.size),
      "query.search_s" -> querySeconds("search"),
      "query.topk_s" -> querySeconds("topk"),
      "query.top1_dp_s" -> querySeconds("top1_dp"),
      "query.significance_s" -> querySeconds("significance")
    )
    (layers, driverAnswers.result())
  }

  /** Interactions per motif edge in every window P2 anchors (same anchors
    * and skip rule as `LocalEnumerator`).
    */
  private def windowOccupancy(series: IndexedSeq[IndexedSeq[TF]], delta: Long, out: ArrayBuffer[Int]): Unit = {
    val ts = series.map(_.map(_.t).toArray)
    if (ts.isEmpty || ts.exists(_.isEmpty)) return
    def firstAbove(a: Array[Long], x: Long): Int = { // first index with a(i) > x
      var lo = 0; var hi = a.length
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (a(mid) <= x) lo = mid + 1 else hi = mid }
      lo
    }
    val em = ts.last
    var prevEnd = Long.MinValue
    for (start <- ts.head) {
      val end = start + delta
      val lo = firstAbove(em, prevEnd)
      if (lo < em.length && em(lo) <= end) {
        ts.foreach(a => out += firstAbove(a, end) - firstAbove(a, start - 1))
        prevEnd = end
      }
    }
  }
}
