package repro.core

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._

/** Phase P1 (Section 4): find every structural match of a motif's spanning
  * path in the time-series graph, disregarding timestamps, δ and φ.
  *
  * This is the paper's modified DFS along the spanning path, over a [[Csr]]
  * of `G_T` that the driver collects and broadcasts. Start vertices (the
  * CSR's rows) are interleaved across `defaultParallelism` slices, row `i`
  * going to slice `i mod p`, and each slice is walked inside one Spark task.
  * When the walk reaches a motif vertex for the first time it binds it to
  * any out-neighbour distinct from every vertex already bound (the vertex
  * bijection); when it revisits one (cycle closure) it requires the edge to
  * the bound vertex.
  */
object StructuralMatcher {

  /** Column name for the graph vertex bound to motif vertex `i`. */
  def vcol(i: Int): String = s"v$i"

  /** All structural matches. Output columns: `v0..v{numVertices-1}`, one row
    * per match, where `v{i}` is the graph vertex mapped to motif vertex `i`.
    *
    * Each `(src, dst)` row is collected (bounded by `spark.driver.maxResultSize`)
    * as one interaction `(t = 0, f = 1.0)`, so repeated rows give the same
    * matches, and broadcast; the result is lazy, so the broadcast is released
    * by Spark's ContextCleaner.
    *
    * @param pairs `(src, dst)` pairs of `G_T` (see [[TimeSeriesGraph.pairs]])
    */
  def matches(pairs: DataFrame, motif: Motif): DataFrame = {
    val spark = pairs.sparkSession
    import spark.implicits._
    val rows = pairs.select(col("src"), col("dst"), lit(0L).as("t"), lit(1.0).as("f"))
    val g = spark.sparkContext.broadcast(TimeSeriesGraph.collectCsr(rows))
    walk(spark, g, motif)((vs, _) => Iterator.single(vs))
      .toDF("vs")
      .select(motif.vertexIds.map(i => col("vs")(i).as(vcol(i))): _*)
  }

  /** Everything `out(vs, es)` yields for the structural matches of `motif`:
    * `vs(i)` is the graph vertex bound to motif vertex `i`, `es(j)` the CSR
    * edge motif edge `j` is mapped to (fresh arrays per match). One partition
    * per slice of start vertices, and no shuffle.
    */
  private[core] def walk[T: Encoder](spark: SparkSession, g: Broadcast[Csr], motif: Motif)(
      out: (Array[Long], Array[Int]) => IterableOnce[T]): Dataset[T] = {
    import spark.implicits._
    val p = spark.sparkContext.defaultParallelism
    spark.range(0, p, 1, p).as[Long].flatMap { slice =>
      val csr = g.value
      Iterator.range(slice.toInt, csr.numSources, p).flatMap(r => fromRow(csr, motif, r)).flatMap(out.tupled)
    }
  }

  /** The matches whose first motif vertex is bound to row `r`'s vertex. */
  private def fromRow(g: Csr, motif: Motif, r: Int): ArrayBuffer[(Array[Long], Array[Int])] = {
    val found = ArrayBuffer.empty[(Array[Long], Array[Int])]
    val vs = new Array[Long](motif.numVertices)
    val rows = new Array[Int](motif.numVertices) // CSR row of each bound vertex, -1 if none
    val es = new Array[Int](motif.m)
    // Vertices are numbered by first appearance along the path, so motif
    // vertex b is unbound at step s exactly when b == nBound.
    def step(s: Int, nBound: Int): Unit =
      if (s == motif.m) found += ((vs.clone(), es.clone()))
      else {
        val (a, b) = motif.edges(s)
        val ra = rows(a)
        if (ra >= 0) {
          if (b < nBound) {
            val e = g.edge(ra, vs(b))
            if (e >= 0) { es(s) = e; step(s + 1, nBound) }
          } else {
            var e = g.offsets(ra)
            while (e < g.offsets(ra + 1)) {
              val v = g.dst(e)
              var i = 0
              while (i < nBound && vs(i) != v) i += 1
              if (i == nBound) {
                vs(b) = v; rows(b) = g.row(v); es(s) = e
                step(s + 1, nBound + 1)
              }
              e += 1
            }
          }
        }
      }
    vs(0) = g.src(r); rows(0) = r
    step(0, 1)
    found
  }

  /** The SQL a relational engine would run for the same match set — used by
    * tests to cross-check the DFS matcher against DuckDB over a `pairs`
    * table with columns (src, dst). Output column `n` = number of matches.
    */
  def countSql(motif: Motif, table: String = "pairs"): String = {
    val joins = motif.edges.zipWithIndex.map { case (_, i) => s"$table e$i" }.mkString(", ")
    val vertexOf = scala.collection.mutable.Map[Int, String]()
    val preds = scala.collection.mutable.ArrayBuffer[String]()
    motif.edges.zipWithIndex.foreach { case ((a, b), i) =>
      vertexOf.get(a) match {
        case Some(expr) => preds += s"e$i.src = $expr"
        case None       => vertexOf(a) = s"e$i.src"
      }
      vertexOf.get(b) match {
        case Some(expr) => preds += s"e$i.dst = $expr"
        case None       => vertexOf(b) = s"e$i.dst"
      }
    }
    for { i <- motif.vertexIds; j <- motif.vertexIds if i < j }
      preds += s"${vertexOf(i)} <> ${vertexOf(j)}"
    s"SELECT count(*) AS n FROM $joins WHERE ${preds.mkString(" AND ")}"
  }
}
