package repro.bench

import org.apache.spark.sql.functions._
import repro.core.{FlowMotifSearch, MotifCatalog}

/** Paper Figure 13: scalability against temporal prefixes of each dataset
  * (B1..B5 / F1..F5 / T1..T4 are prefixes of the covered period). Shape:
  * runtime grows no faster than the input+output size.
  */
class Fig13ScalabilityBench extends BenchBase {

  private val motifs = Seq(MotifCatalog.M32, MotifCatalog.M33)

  test("Figure 13: scalability to input prefix size") {
    banner("FIGURE 13 — temporal-prefix scalability (δ, φ = defaults)")
    println(f"${"Dataset"}%-16s${"Motif"}%-10s${"prefix"}%8s${"edges"}%10s${"instances"}%12s${"time(s)"}%10s")
    for ((name, df, delta, phi) <- datasets; m <- motifs) {
      val horizon = df.agg(max(col("t"))).head().getLong(0)
      val rows = for (frac <- Seq(0.25, 0.5, 0.75, 1.0)) yield {
        val prefix = df.where(col("t") <= (horizon * frac).toLong).cache()
        val edges = prefix.count()
        val (n, secs) = timed(FlowMotifSearch.countInstances(spark, prefix, m, delta, phi))
        println(f"$name%-16s${m.name}%-10s$frac%8.2f$edges%10d$n%12d$secs%10.2f")
        prefix.unpersist()
        (edges, n, secs)
      }
      assert(rows.map(_._1).toSeq == rows.map(_._1).sorted, "prefixes grow")
      assert(rows.last._2 >= rows.head._2, "instances grow with the prefix")
    }
  }
}
