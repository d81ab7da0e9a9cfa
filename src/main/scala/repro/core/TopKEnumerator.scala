package repro.core

import scala.collection.mutable

/** Top-k flow motif search inside one structural match (Section 5).
  *
  * The [[LocalEnumerator]] core with φ replaced by a *floating* threshold: a
  * min-heap of the k best instance flows found so far, and a prefix whose
  * flow cannot strictly beat the current k-th best is pruned, exactly as the
  * paper replaces φ by `f(G_I^k)`. The heap is keyed by the flow the core
  * carries, so reading the threshold recomputes nothing.
  */
object TopKEnumerator {

  /** The up-to-k highest-flow maximal instances, best first. */
  def topK(
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      k: Int
  ): Vector[LocalInstance] = {
    require(k >= 1, "k must be >= 1")
    // Min-heap on instance flow: head is the k-th best so far.
    type Entry = (Double, LocalInstance)
    val heap = mutable.PriorityQueue.empty(Ordering.by[Entry, Double](_._1).reverse)
    LocalEnumerator.search(series, delta, new LocalEnumerator.Sink {
      def admits(f: Double): Boolean = heap.size < k || f > heap.head._1
      def emit(starts: Array[Int], ends: Array[Int], f: Double): Unit = {
        if (heap.size == k) heap.dequeue()
        heap.enqueue(f -> LocalEnumerator.instance(series, starts, ends))
      }
    })
    heap.dequeueAll[Entry].sortBy(-_._1).map(_._2).toVector
  }
}
