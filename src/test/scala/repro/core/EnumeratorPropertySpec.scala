package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Randomized equivalence of the fast Algorithm-1 enumerator, the top-k
  * variant and the DP module against the brute-force reference
  * (Definitions 3.2/3.3 applied literally). Deterministic seeds.
  */
class EnumeratorPropertySpec extends AnyFunSuite {

  /** Random per-edge series: unique timestamps within an edge, ties across
    * edges allowed; integer flows >= 1.
    */
  private def randomSeries(rnd: scala.util.Random, m: Int): Vector[Vector[TF]] =
    Vector.fill(m) {
      val n = rnd.nextInt(6) + 1
      rnd.shuffle((0 to 30).toVector).take(n).sorted
        .map(t => TF(t.toLong, (rnd.nextInt(9) + 1).toDouble))
    }

  private def checkCase(seed: Int): Unit = {
    val rnd = new scala.util.Random(seed)
    val m = rnd.nextInt(4) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val phi = rnd.nextInt(3) match {
      case 0 => 0.0
      case 1 => (rnd.nextInt(8) + 1).toDouble
      case _ => (rnd.nextInt(20) + 1).toDouble
    }
    val fast = LocalEnumerator.enumerate(series, delta, phi)
    val brute = BruteForce.instances(series, delta, phi)
    val fastKeys = fast.map(_.key)
    assert(fastKeys.distinct.size == fastKeys.size,
      s"seed=$seed: duplicate instances emitted\n$series δ=$delta φ=$phi")
    assert(fastKeys.toSet == brute.map(_.key).toSet,
      s"seed=$seed: enumerator != brute force\nseries=$series δ=$delta φ=$phi\n" +
      s"fast=${fastKeys.toSet}\nbrute=${brute.map(_.key).toSet}")
    // Every emitted instance is valid and maximal by the definitions.
    fast.foreach { inst =>
      assert(BruteForce.isValid(inst.sets, delta, phi), s"seed=$seed: invalid instance $inst")
      assert(BruteForce.isMaximal(inst.sets, series, delta, phi), s"seed=$seed: non-maximal $inst")
    }
    // Flows agree per instance key.
    val bruteFlows = brute.map(i => i.key -> i.flow).toMap
    fast.foreach(i => assert(math.abs(bruteFlows(i.key) - i.flow) < 1e-9, s"seed=$seed flows"))
  }

  for (batch <- 0 until 25) {
    test(s"enumerator == brute force on random series (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkCase(batch * 20 + s)
    }
  }

  private def checkTopK(seed: Int): Unit = {
    val rnd = new scala.util.Random(10000 + seed)
    val m = rnd.nextInt(3) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val k = rnd.nextInt(5) + 1
    val all = LocalEnumerator.enumerate(series, delta, phi = 0.0)
    val expectFlows = all.map(_.flow).sorted(Ordering[Double].reverse).take(k)
    val got = TopKEnumerator.topK(series, delta, k)
    assert(got.map(_.flow) == expectFlows,
      s"seed=$seed: topK flows mismatch: got=${got.map(_.flow)} expect=$expectFlows")
    got.foreach { inst =>
      assert(BruteForce.isValid(inst.sets, delta, phi = 0.0), s"seed=$seed invalid topK instance")
      assert(BruteForce.isMaximal(inst.sets, series, delta, phi = 0.0), s"seed=$seed non-maximal topK")
    }
  }

  for (batch <- 0 until 10) {
    test(s"top-k == k best of full enumeration (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkTopK(batch * 20 + s)
    }
  }

  private def checkDP(seed: Int): Unit = {
    val rnd = new scala.util.Random(20000 + seed)
    val m = rnd.nextInt(3) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val all = LocalEnumerator.enumerate(series, delta, phi = 0.0)
    val expect = if (all.isEmpty) 0.0 else all.map(_.flow).max
    val got = MaxFlowDP.maxFlow(series, delta)
    assert(math.abs(got - expect) < 1e-9,
      s"seed=$seed: DP max $got != enumeration max $expect\nseries=$series δ=$delta")
  }

  for (batch <- 0 until 10) {
    test(s"DP top-1 flow == max over enumerated instances (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkDP(batch * 20 + s)
    }
  }

  /** Random per-edge series with timestamp ties inside an edge. Flows are
    * distinct within an edge, because `BruteForce.isMaximal` tells
    * interactions apart by value.
    */
  private def tiedSeries(rnd: scala.util.Random, m: Int): Vector[Vector[TF]] =
    Vector.fill(m) {
      val n = rnd.nextInt(5) + 1
      val flows = rnd.shuffle((1 to 9).toVector).take(n)
      flows.map(f => TF(rnd.nextInt(12).toLong, f.toDouble)).sortBy(_.t)
    }

  private def checkTies(seed: Int): Unit = {
    val rnd = new scala.util.Random(30000 + seed)
    val m = rnd.nextInt(3) + 1
    val series = tiedSeries(rnd, m)
    val delta = rnd.nextInt(8).toLong
    val phi = rnd.nextInt(3).toDouble * 4
    val ctx = s"seed=$seed series=$series δ=$delta"
    val brute = BruteForce.instances(series, delta, phi)
    assert(LocalEnumerator.enumerate(series, delta, phi).map(_.sets).toSet == brute.map(_.sets).toSet,
      s"$ctx φ=$phi: enumerator != brute force")
    val all = BruteForce.instances(series, delta, phi = 0.0)
    val k = rnd.nextInt(4) + 1
    val top = TopKEnumerator.topK(series, delta, k)
    assert(top.map(_.flow) == all.map(_.flow).sorted(Ordering[Double].reverse).take(k), s"$ctx: topK flows")
    assert(top.forall(i => all.exists(_.sets == i.sets)), s"$ctx: topK instance not maximal")
    assert(MaxFlowDP.maxFlow(series, delta) == BruteForce.maxFlow(series, delta), s"$ctx: DP max")
  }

  for (batch <- 0 until 5) {
    test(s"timestamp ties within an edge: enumerate, top-k and DP == brute force (batch $batch, 40 seeds)") {
      for (s <- 0 until 40) checkTies(batch * 40 + s)
    }
  }

  /** Count, enumerate, top-k and the DP at `delta` and at `Long.MaxValue`. */
  private def answers(series: Vector[Vector[TF]], delta: Long, phi: Double) = Seq(
    LocalEnumerator.count(series, delta, phi),
    LocalEnumerator.enumerate(series, delta, phi).map(_.key).toSet,
    TopKEnumerator.topK(series, delta, 3).map(_.flow),
    MaxFlowDP.maxFlow(series, delta))

  test("δ = Long.MaxValue gives the answers of δ = the series' time span") {
    for (seed <- 0 until 100) {
      val rnd = new scala.util.Random(50000 + seed)
      val series = randomSeries(rnd, rnd.nextInt(4) + 1)
      val ts = series.flatten.map(_.t)
      val phi = rnd.nextInt(3).toDouble * 4
      assert(answers(series, Long.MaxValue, phi) == answers(series, ts.max - ts.min, phi),
        s"seed=$seed series=$series φ=$phi")
    }
  }

  test("timestamps near Long.MaxValue: enumerate, top-k and DP == brute force") {
    for (seed <- 0 until 100) {
      val rnd = new scala.util.Random(60000 + seed)
      // Shift the series so the latest timestamps are Long.MaxValue itself.
      val series = randomSeries(rnd, rnd.nextInt(3) + 1).map(_.map(x => x.copy(t = Long.MaxValue - 30 + x.t)))
      val delta = if (rnd.nextBoolean()) rnd.nextInt(16).toLong else Long.MaxValue
      val phi = rnd.nextInt(3).toDouble * 4
      val ctx = s"seed=$seed series=$series δ=$delta φ=$phi"
      val brute = BruteForce.instances(series, delta, phi)
      assert(LocalEnumerator.enumerate(series, delta, phi).map(_.key).toSet == brute.map(_.key).toSet, ctx)
      assert(LocalEnumerator.count(series, delta, phi) == brute.size, ctx)
      val all = BruteForce.instances(series, delta, phi = 0.0).map(_.flow).sorted(Ordering[Double].reverse)
      assert(TopKEnumerator.topK(series, delta, 3).map(_.flow) == all.take(3), ctx)
      assert(MaxFlowDP.maxFlow(series, delta) == all.headOption.getOrElse(0.0), ctx)
    }
  }

  /** Dense series: 50-300 interactions per edge, beyond brute force's reach,
    * where the floating top-k threshold prunes. Enumerating with φ set to the
    * k-th best top-k flow must find exactly the top-k flows at its head.
    */
  private def checkDense(seed: Int): Unit = {
    val rnd = new scala.util.Random(40000 + seed)
    val m = rnd.nextInt(4) + 2
    val series = Vector.fill(m) {
      val n = rnd.nextInt(251) + 50
      Vector.fill(n)(TF(rnd.nextInt(1000).toLong, rnd.nextInt(900) / 100.0 + 1)).sortBy(_.t)
    }
    val delta = (rnd.nextInt(4) + 1) * 20L
    val k = rnd.nextInt(10) + 1
    val ctx = s"seed=$seed m=$m δ=$delta k=$k"
    val top = TopKEnumerator.topK(series, delta, k)
    assert(top.size == k, s"$ctx: fewer than k instances")
    val above = LocalEnumerator.enumerate(series, delta, phi = top.last.flow)
    assert(LocalEnumerator.count(series, delta, top.last.flow) == above.size, s"$ctx: count != enumerate.size")
    assert(top.map(_.flow) == above.map(_.flow).sorted(Ordering[Double].reverse).take(k), s"$ctx: topK flows")
    // The DP subtracts prefix sums, so it may differ from the summed flow by rounding.
    assert(math.abs(MaxFlowDP.maxFlow(series, delta) - top.head.flow) < 1e-9, s"$ctx: DP max != top-1")
  }

  for (batch <- 0 until 4) {
    test(s"dense series: count == enumerate, top-k == k best, DP == top-1 (batch $batch, 10 seeds)") {
      for (s <- 0 until 10) checkDense(batch * 10 + s)
    }
  }
}
