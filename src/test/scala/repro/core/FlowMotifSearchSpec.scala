package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.stats.Significance

/** End-to-end two-phase search (P1 + P2 on Spark) against full brute force
  * (brute structural matching x brute maximal enumeration) on small graphs,
  * and the match rows P1's DFS emits against brute-force matches with their
  * series.
  */
class FlowMotifSearchSpec extends SparkSpec {

  /** Interactions realizing one guaranteed instance of `motif` on fresh nodes
    * 100,101,... starting at time `t0`, one interaction per motif edge.
    */
  private def planted(motif: Motif, t0: Long, f: Double): Vector[TestGraphs.Edge] =
    motif.edges.zipWithIndex.map { case ((a, b), i) =>
      TestGraphs.Edge(100L + a, 100L + b, t0 + i * 3L, f)
    }

  private def collectInstances(
      edges: Seq[TestGraphs.Edge], motif: Motif, delta: Long, phi: Double
  ): Set[(Vector[Long], Vector[Vector[Long]])] =
    FlowMotifSearch.instances(spark, TestGraphs.toDf(spark, edges), motif, delta, phi)
      .collect()
      .map(r => (r.vs.toVector, r.sets.map(_.map(_.t).toVector).toVector))
      .toSet

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: Spark two-phase == brute force (random graph + planted instance)") {
      val edges = TestGraphs.randomEdges(nNodes = 5, nEdges = 45, horizon = 40, maxFlow = 5,
        seed = 300 + motif.m * 7 + motif.numVertices) ++ planted(motif, 1000, 9.0)
      val delta = 12L
      val phi = 2.0
      val got = collectInstances(edges, motif, delta, phi)
      val expected = TestGraphs.bruteForceAll(edges, motif, delta, phi)
      assert(got == expected, s"two-phase != brute force for ${motif.name}")
      assert(got.nonEmpty, "planted instance should guarantee at least one result")
    }
  }

  test("countInstances agrees with materialized instances") {
    val edges = TestGraphs.randomEdges(4, 40, 40, 5, seed = 17) ++ planted(MotifCatalog.M33, 500, 9.0)
    val df = TestGraphs.toDf(spark, edges)
    val n = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M33, 12, 1.0)
    assert(n == FlowMotifSearch.instances(spark, df, MotifCatalog.M33, 12, 1.0).count())
  }

  test("instance flows reported by Spark equal Equation 1 recomputed from the sets") {
    val edges = TestGraphs.randomEdges(4, 40, 40, 5, seed = 18)
    val rows = FlowMotifSearch.instances(spark, TestGraphs.toDf(spark, edges),
      MotifCatalog.M32, 12, 0.0).collect()
    rows.foreach { r =>
      val recomputed = r.sets.map(_.map(_.f).sum).min
      assert(math.abs(r.flow - recomputed) < 1e-9)
    }
  }

  test("instances grow (weakly) with δ") {
    val edges = TestGraphs.randomEdges(4, 60, 60, 5, seed = 19)
    val df = TestGraphs.toDf(spark, edges)
    val n1 = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 5, 0.0)
    val n2 = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 20, 0.0)
    // Larger δ never yields fewer *windows* of opportunity; counts of maximal
    // instances are not strictly monotone in theory, but on this fixture the
    // growth expected by Figure 9 is clear-cut.
    assert(n2 >= n1)
    assert(n2 > 0)
  }

  test("instances shrink (weakly) with φ, to zero at absurd φ (Figure 10)") {
    val edges = TestGraphs.randomEdges(4, 60, 60, 5, seed = 20)
    val df = TestGraphs.toDf(spark, edges)
    val counts = Seq(0.0, 3.0, 8.0, 1e6).map(phi =>
      FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 15, phi))
    assert(counts == counts.sorted(Ordering[Long].reverse))
    assert(counts.last == 0)
  }

  test("searching an empty graph returns nothing") {
    val df = TestGraphs.toDf(spark, Vector.empty[TestGraphs.Edge])
    assert(FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 10, 0.0) == 0)
  }

  // ------------------------------------------------ match rows (P1 + series)

  private type Row = (Vector[Long], Vector[Vector[TF]])

  private def collectRows(df: org.apache.spark.sql.DataFrame, motif: Motif): Seq[Row] =
    FlowMotifSearch.matchRows(spark, df, motif).collect().toSeq
      .map(r => (r.vs.toVector, r.series.map(_.toVector).toVector))

  /** Brute-force matches over the non-loop pairs, each with its series. */
  private def expectedRows(edges: Seq[TestGraphs.Edge], motif: Motif): Seq[Row] = {
    val pairs = edges.filter(e => e.src != e.dst).map(e => (e.src, e.dst)).toSet
    BruteForce.structuralMatches(pairs, motif).toSeq.map(vs => (vs, TestGraphs.seriesFor(edges, motif, vs)))
  }

  /** Multiset equality; `expected` holds no duplicates. */
  private def assertSameRows(got: Seq[Row], expected: Seq[Row], clue: String): Unit = {
    assert(got.size == expected.size, s"$clue: ${got.size} rows, expected ${expected.size}")
    assert(got.toSet == expected.toSet, clue)
  }

  /** Random pairs over vertices 0..6, plus: hub 0 with an edge to each of
    * 1..8, the reverse of some random pairs, sinks 7 and 8 (no out-edges, so
    * a path reaching them mid-way dies there) and self-loops, one of them on
    * sink 7. Each pair carries 1–3 interactions with distinct timestamps.
    */
  private def structuredEdges(seed: Long): Vector[TestGraphs.Edge] = {
    val rnd = new scala.util.Random(seed)
    val random = Vector.fill(14)((rnd.nextInt(7).toLong, rnd.nextInt(7).toLong)).filter(p => p._1 != p._2)
    val hub = (1L to 8L).map(v => (0L, v))
    val reversed = random.take(5).map(_.swap)
    val intoSinks = Seq((3L, 7L), (5L, 8L), (2L, 8L))
    val loops = Seq((0L, 0L), (2L, 2L), (7L, 7L))
    (random ++ hub ++ reversed ++ intoSinks ++ loops).distinct.flatMap { case (s, d) =>
      rnd.shuffle((0 until 40).toVector).take(1 + rnd.nextInt(3))
        .map(t => TestGraphs.Edge(s, d, t.toLong, (rnd.nextInt(5) + 1).toDouble))
    }
  }

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: match rows == brute-force matches with their series, under any partitioning") {
      val edges = structuredEdges(seed = 500 + motif.m * 7 + motif.numVertices)
      val expected = expectedRows(edges, motif)
      assert(expected.nonEmpty, "the fixture should have matches")
      val df = TestGraphs.toDf(spark, edges)
      for ((label, input) <- Seq("as built" -> df, "repartition(1)" -> df.repartition(1),
                                 "repartition(13)" -> df.repartition(13)))
        assertSameRows(collectRows(input, motif), expected, s"${motif.name} $label")
    }
  }

  test("an input of only self-loops has no match rows and no instances") {
    val loops = (1L to 4L).flatMap(v => Seq(TestGraphs.Edge(v, v, 1, 2.0), TestGraphs.Edge(v, v, 5, 3.0)))
    val df = TestGraphs.toDf(spark, loops)
    for (motif <- Seq(MotifCatalog.M32, MotifCatalog.M33)) {
      assert(FlowMotifSearch.matchRows(spark, df, motif).count() == 0)
      assert(FlowMotifSearch.countInstances(spark, df, motif, 10, 0.0) == 0)
    }
  }

  test("a single source vertex: one-edge motif matches each out-edge, longer motifs none") {
    val star = Vector(
      TestGraphs.Edge(5, 6, 1, 2.0), TestGraphs.Edge(5, 6, 4, 1.0), TestGraphs.Edge(5, 6, 30, 3.0),
      TestGraphs.Edge(5, 7, 2, 4.0), TestGraphs.Edge(5, 8, 3, 1.0), TestGraphs.Edge(5, 8, 9, 5.0))
    val df = TestGraphs.toDf(spark, star)
    val oneEdge = Motif("M(2,1)", Vector(0, 1))
    assertSameRows(collectRows(df, oneEdge), expectedRows(star, oneEdge), "M(2,1)")
    assert(FlowMotifSearch.countInstances(spark, df, oneEdge, 5, 0.0) ==
      TestGraphs.bruteForceAll(star, oneEdge, 5, 0.0).size)
    for (motif <- MotifCatalog.all) {
      assert(collectRows(df, motif).isEmpty, motif.name)
      assert(FlowMotifSearch.countInstances(spark, df, motif, 5, 0.0) == 0, motif.name)
    }
  }

  test("negative and near-Long.MaxValue vertex ids match like any others") {
    val ids = Vector(Long.MinValue, -7L, -1L, 0L, Long.MaxValue - 1, Long.MaxValue)
    val edges = TestGraphs.randomEdges(nNodes = ids.size, nEdges = 40, horizon = 40, maxFlow = 5, seed = 77)
      .map(e => e.copy(src = ids(e.src.toInt), dst = ids(e.dst.toInt)))
    val df = TestGraphs.toDf(spark, edges)
    for (motif <- MotifCatalog.all) {
      val expected = expectedRows(edges, motif)
      assertSameRows(collectRows(df, motif), expected, motif.name)
      assert(FlowMotifSearch.countInstances(spark, df, motif, 12, 2.0) ==
        TestGraphs.bruteForceAll(edges, motif, 12, 2.0).size, motif.name)
    }
  }

  // ------------------------------------------- input checks, cache hygiene

  /** `query` fails with an `IllegalArgumentException` naming `param`, on an
    * empty graph and on one with matches, before any Spark job starts.
    */
  private def assertRejected(param: String)(query: org.apache.spark.sql.DataFrame => Any): Unit = {
    val sc = spark.sparkContext
    val empty = TestGraphs.toDf(spark, Vector.empty[TestGraphs.Edge])
    val withMatches = TestGraphs.toDf(spark, TestGraphs.fig2Edges)
    for ((label, df) <- Seq("empty graph" -> empty, "graph with matches" -> withMatches)) {
      val group = s"rejected-$param-$label"
      sc.setJobGroup(group, group)
      try {
        val e = intercept[IllegalArgumentException](query(df))
        assert(e.getMessage.contains(param), s"$label: ${e.getMessage}")
      } finally sc.clearJobGroup()
      assert(sc.statusTracker.getJobIdsForGroup(group).isEmpty, s"$label: a Spark job ran")
    }
  }

  test("a negative δ is rejected on the driver by every query") {
    val m = MotifCatalog.M32
    assertRejected("delta")(FlowMotifSearch.countInstances(spark, _, m, -1, 0.0))
    assertRejected("delta")(FlowMotifSearch.instances(spark, _, m, -1, 0.0))
    assertRejected("delta")(TopKSearch.topK(spark, _, m, -1, 3))
    assertRejected("delta")(TopKSearch.maxFlowDP(spark, _, m, -1))
  }

  test("k < 1 is rejected on the driver by topK") {
    for (k <- Seq(0, -1)) assertRejected("k")(TopKSearch.topK(spark, _, MotifCatalog.M32, 10, k))
  }

  test("nRandom < 1 is rejected on the driver by the significance study") {
    for (n <- Seq(0, -1)) assertRejected("nRandom")(Significance.study(spark, _, MotifCatalog.M32, 10, 0.0, n))
  }

  for (f <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity)) {
    test(s"an interaction with flow $f is rejected, with the count and the row") {
      val edges = TestGraphs.fig2Edges ++ Seq(TestGraphs.Edge(2, 3, 19, f), TestGraphs.Edge(4, 4, 1, f))
      val e = intercept[IllegalArgumentException] {
        FlowMotifSearch.countInstances(spark, TestGraphs.toDf(spark, edges), MotifCatalog.M32, 10, 0.0)
      }
      assert(e.getMessage.contains("rejected: 2 "), e.getMessage)
      assert(e.getMessage.contains(s", $f)"), e.getMessage)
    }
  }

  test("an interaction with a null src is rejected") {
    import spark.implicits._
    val df = Seq((Some(1L), 2L, 3L, 1.0), (None, 2L, 4L, 1.0)).toDF("src", "dst", "t", "f")
    val e = intercept[IllegalArgumentException](FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 10, 0.0))
    assert(e.getMessage.contains("rejected: 1 ") && e.getMessage.contains("(null, 2, 4, 1.0)"), e.getMessage)
  }

  test("queries leave no cached data behind") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(5, 60, 80, 9, seed = 72))
    val cached = spark.sparkContext.getPersistentRDDs.size
    FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 15, 3.0)
    TopKSearch.topK(spark, df, MotifCatalog.M32, 15, 3)
    TopKSearch.maxFlowDP(spark, df, MotifCatalog.M32, 15)
    Significance.study(spark, df, MotifCatalog.M32, 15, 3.0, nRandom = 2, seed = 5)
    assert(spark.sparkContext.getPersistentRDDs.size == cached)
  }
}
