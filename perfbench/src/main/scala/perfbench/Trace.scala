package perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

/** Spans recorded from the benchmark around each call into a layer. A span's
  * name doubles as the Spark job group of every job started inside it, so the
  * [[LayerListener]] can attribute stages, tasks and shuffle bytes to layers.
  */
final class Tracer(sc: SparkContext) {
  final case class Span(id: Int, parent: Int, name: String, attrs: Map[String, String],
                        startNs: Long, var endNs: Long = 0L) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]

  def span[A](name: String, attrs: (String, String)*)(body: => A): A = {
    val id = spans.size
    spans += Span(id, stack.headOption.getOrElse(-1), name, attrs.toMap, System.nanoTime())
    stack = id :: stack
    sc.setJobGroup(name, name)
    try body
    finally {
      spans(id).endNs = System.nanoTime()
      stack = stack.tail
      stack.headOption match {
        case Some(p) => sc.setJobGroup(spans(p).name, spans(p).name)
        case None    => sc.clearJobGroup()
      }
    }
  }

  /** Total seconds of the spans called `name`. */
  def seconds(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum

  /** A span's duration minus the part its direct children cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.filter(_.parent == s.id).map(_.seconds).sum

  def toJson: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "attrs" -> s.attrs,
      "start_s" -> (s.startNs - spans.head.startNs) / 1e9, "seconds" -> s.seconds,
      "self_seconds" -> selfSeconds(s))
  }
}

/** Per-job-group totals of Spark's scheduler events. */
final class LayerListener extends SparkListener {
  final class Totals {
    var jobs = 0; var stages = 0; var tasks = 0
    var runMs = 0L; var maxTaskMs = 0L; var shuffleBytes = 0L
    def toJson: Map[String, Any] = Map("jobs" -> jobs, "stages" -> stages, "tasks" -> tasks,
      "task_run_s" -> runMs / 1e3, "task_max_s" -> maxTaskMs / 1e3,
      "shuffle_mb" -> shuffleBytes / 1048576.0)
  }

  private val groups = mutable.LinkedHashMap.empty[String, Totals]
  private val stageGroup = mutable.Map.empty[Int, String]

  private def totals(g: String) = groups.getOrElseUpdate(g, new Totals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("(none)")
    e.stageIds.foreach(stageGroup(_) = g)
    totals(g).jobs += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).foreach(totals(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = totals(g)
      t.tasks += 1
      t.runMs += m.executorRunTime
      t.maxTaskMs = math.max(t.maxTaskMs, m.executorRunTime)
      t.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Totals of job group `g` once every event posted so far has arrived. */
  def get(sc: SparkContext, g: String): Totals = {
    ListenerBusDrain.drain(sc)
    synchronized(groups.getOrElse(g, new Totals))
  }

  def toJson(sc: SparkContext): Map[String, Any] = {
    ListenerBusDrain.drain(sc)
    synchronized(groups.map { case (g, t) => g -> t.toJson }.toMap)
  }
}
