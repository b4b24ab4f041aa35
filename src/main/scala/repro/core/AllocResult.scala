package repro.core

/** Result of a TxAllo run.
  *
  * @param ids             account ids, aligned with `assign`
  * @param assign          shard per node index (all in [0, k))
  * @param initThroughput  modeled graph throughput after the join phase
  * @param finalThroughput modeled graph throughput after the last sweep
  * @param sweeps          optimization sweeps executed
  * @param converged       whether the last sweep's gain fell below epsilon
  *                        (false: the run stopped at `maxSweeps`)
  * @param millis          wall-clock running time of the whole algorithm
  */
final case class AllocResult(
    ids: Array[Long],
    assign: Array[Int],
    initThroughput: Double,
    finalThroughput: Double,
    sweeps: Int,
    converged: Boolean,
    millis: Long) {

  require(ids.length == assign.length, "ids/assign length mismatch")

  /** Account-id keyed mapping (Definition 1 output). */
  def toMap: Map[Long, Int] = ids.iterator.zip(assign.iterator).toMap
}

/** Graph-level diagnostics shared by tests and harnesses (no Spark needed). */
object GraphMetrics {

  /** Inter-community weight ratio — the graph-level cross-shard transaction
    * ratio gamma (Section III-C). Self-loops are intra by definition.
    */
  def cutRatio(g: Graph, assign: Array[Int]): Double = {
    if (g.totalWeight == 0) return 0.0
    var cut = 0.0
    var v = 0
    while (v < g.n) {
      g.foreachNbr(v)((u, w) => if (u > v && assign(u) != assign(v)) cut += w)
      v += 1
    }
    cut / g.totalWeight
  }

  /** Per-community graph workloads sigma_i (Eq. 5) for a full assignment. */
  def workloads(g: Graph, assign: Array[Int], k: Int, eta: Double): Array[Double] = {
    val sigma = new Array[Double](k)
    var v = 0
    while (v < g.n) {
      sigma(assign(v)) += g.self(v)
      g.foreachNbr(v) { (u, w) =>
        if (u > v) {
          if (assign(u) == assign(v)) sigma(assign(v)) += w
          else { sigma(assign(v)) += eta * w; sigma(assign(u)) += eta * w }
        }
      }
      v += 1
    }
    sigma
  }
}
