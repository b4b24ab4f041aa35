package repro.perfbench

import Bench.median

/** Per-layer metrics of a traced run, from the spans and counts recorded
  * around each call. A layer's time is the median over the timed operations
  * of its per-operation total; a layer the timed operations never call (the
  * set-up layers of astep-*) is taken over the set-up repetitions instead, and
  * a layer the workload never calls reports 0.
  */
object Layers {

  /** metric -> span name; each is the layer's total time per operation. */
  private val times = Seq(
    "txgen.s" -> "txgen", "txgraph.s" -> "txgraph", "graph.build_s" -> "graph.build",
    "gtxallo.s" -> "gtxallo", "metis.s" -> "metis", "scheduler.ledger_s" -> "scheduler.ledger",
    "scheduler.s" -> "scheduler", "hash.s" -> "hash", "step.slice_s" -> "step.slice",
    "step.active_s" -> "step.active", "graph.merge_s" -> "graph.merge", "atxallo.s" -> "atxallo",
    "metrics.total_s" -> "metrics")

  /** Counts recorded at layer boundaries, with their units. */
  private val counts = Seq(
    "txgen.tx" -> "count", "txgraph.edges" -> "count", "graph.nodes" -> "count",
    "louvain.communities" -> "count", "gtxallo.sweeps" -> "count", "gtxallo.converged" -> "flag",
    "step.edges" -> "count", "atxallo.sweeps" -> "count", "atxallo.active" -> "count")

  def metrics(tr: Trace, ops: Seq[String], setups: Seq[String]): Seq[(String, Double, String)] = {
    def spanned(layer: String): Seq[String] = {
      val inOps = ops.filter(o => tr.spans.exists(s => s.name == layer && s.parent == o))
      if (inOps.nonEmpty) inOps else setups
    }
    def layerS(layer: String): Double = { val os = spanned(layer); median(tr.perOp(layer, os)) }
    def countOf(name: String): Double = {
      val inOps = tr.countsOf(name, ops)
      median(if (inOps.nonEmpty) inOps else tr.countsOf(name, setups))
    }
    val louvainS = countOf("louvain.s")
    val todf = tr.calls("alloc.todf", ops.toSet)
    val evals = tr.calls("metrics", ops.toSet)
    times.map { case (m, layer) => (m, layerS(layer), "s") } ++
      counts.map { case (m, unit) => (m, countOf(m), unit) } ++ Seq(
        ("louvain.s", louvainS, "s"),
        // Derived: G-TxAllo runs Louvain inside; the probe times it apart.
        ("gtxallo.moves_s", layerS("gtxallo") - louvainS, "s"),
        ("alloc.todf_s", median(todf), "s"),
        ("metrics.s", median(evals), "s"),
        ("metrics.calls", if (ops.isEmpty) 0.0 else evals.length.toDouble / ops.length, "count"),
        ("trace.op_s", median(tr.spans.iterator.filter(s => ops.contains(s.name)).map(_.seconds).toSeq), "s"),
        ("trace.uncovered_share", median(tr.uncoveredShare(ops)), "ratio"))
  }
}
