package org.apache.spark

/** Waits until every Spark listener event posted so far has been delivered.
  * The listener bus is private to Spark; the benchmark needs it drained before
  * reading its own listener's totals, so this one accessor lives in Spark's
  * package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
