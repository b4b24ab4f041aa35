package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.alloc.Alloc
import repro.chain.{ChainParams, TxGen}
import repro.core.{ATxAllo, AllocResult, GTxAllo, Graph, Louvain, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}

/** The T9-T10 pure-A stream, as `repro.harness.Evolution` runs it: G-TxAllo
  * bootstraps on the first `trainFrac` of the blocks (set-up), then the rest
  * arrives in `nSteps` equal steps. One operation is one step: slice the new
  * blocks, merge their edges into the graph, run A-TxAllo (Algorithm 2) and
  * evaluate. After the last step the stream restarts from the bootstrap, so
  * step t of every pass must give the same mapping.
  */
final class AStep(spark: SparkSession, params: ChainParams, k: Int, eta: Double,
                  tr: Trace, trainFrac: Double = 0.9, val nSteps: Int = 12) extends Workload {

  private val trainBlocks = (params.nBlocks * trainFrac).toLong
  private val stepBlocks = math.max(1L, (params.nBlocks - trainBlocks) / nSteps)

  private var txs: DataFrame = _
  private var base: Graph = _
  private var bootstrap: AllocResult = _
  private var baseTx = 0L
  private var stepTx = Array.emptyLongArray

  private var step = 0
  private var graph: Graph = _
  private var assign: Map[Long, Int] = _

  private var produced: Option[AStep.Produced] = None
  private val reference = new Array[AllocResult](nSteps)
  private val stepThroughput = Array.fill(nSteps)(Double.NaN)

  def setupReps: Int = 3
  def warmupOps: Int = 2
  def minOps: Int = nSteps

  /** Mean Lambda/lambda over one pass of steps (the T9 pure-A average). */
  def normThroughput: Double = stepThroughput.sum / nSteps

  /** Ledger, base graph and bootstrap G-TxAllo; repeated set-ups must agree. */
  def setup(rep: Int): Unit = {
    if (txs != null) txs.unpersist()
    val (ledger, nTx) = tr("txgen") {
      val t = TxGen.transactions(spark, params).cache()
      (t, t.count())
    }
    txs = ledger
    tr.count("txgen.tx", nTx.toDouble)
    val trainTxs = txs.where(col("block") < trainBlocks)
    val edges = tr("txgraph") {
      TxGraph.edges(trainTxs).select("src", "dst", "weight").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    }
    tr.count("txgraph.edges", edges.length.toDouble)
    val g = tr("graph.build")(Graph.fromEdges(edges))
    tr.count("graph.nodes", g.n.toDouble)
    val p = TxAlloParams.default(g, k, eta)
    val boot = tr("gtxallo")(GTxAllo.run(g, p))
    tr.count("gtxallo.sweeps", boot.sweeps.toDouble)
    tr.count("gtxallo.converged", if (boot.sweeps < p.maxSweeps) 1.0 else 0.0)
    if (bootstrap != null)
      require(java.util.Arrays.equals(bootstrap.ids, boot.ids) &&
              java.util.Arrays.equals(bootstrap.assign, boot.assign),
        "bootstrap G-TxAllo mapping differs between set-ups")
    base = g
    bootstrap = boot
    baseTx = trainTxs.count()
    if (stepTx.isEmpty) stepTx = Array.tabulate(nSteps)(t => slice(t).count())
    if (tr.enabled) {
      val t0 = System.nanoTime()
      val labels = Louvain.cluster(g)
      tr.count("louvain.s", (System.nanoTime() - t0) / 1e9)
      tr.count("louvain.communities", if (labels.isEmpty) 0.0 else labels.max + 1.0)
    }
    reset()
  }

  def reset(): Unit = {
    step = 0
    graph = base
    assign = bootstrap.toMap
  }

  private def slice(t: Int): DataFrame = {
    val lo = trainBlocks + t * stepBlocks
    txs.where(col("block") >= lo && col("block") < lo + stepBlocks)
  }

  def operation(): Unit = {
    val t = step
    val stepTxs = slice(t)
    val edges = tr("step.slice") {
      TxGraph.edges(stepTxs).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    }
    tr.count("step.edges", edges.length.toDouble)
    val txAcc = TxGen.txAccounts(stepTxs).cache()
    val active = tr("step.active") {
      txAcc.select("account").distinct().collect().map(_.getLong(0)).toSet
    }
    tr.count("atxallo.active", active.size.toDouble)
    graph = tr("graph.merge")(Graph.merge(graph, edges))
    val res = tr("atxallo")(ATxAllo.run(graph, assign, active, TxAlloParams.default(graph, k, eta)))
    tr.count("atxallo.sweeps", res.sweeps.toDouble)
    val df = tr("alloc.todf") {
      assign = res.toMap
      Alloc.toDf(spark, assign)
    }
    val eval = tr("metrics")(Metrics.evaluate(txAcc, df, k, eta))
    produced = Some(AStep.Produced(t, graph, res, eval, txAcc))
    step = (t + 1) % nSteps
    if (step == 0) reset()
  }

  def probe(): Unit = ()

  def check(): Unit = {
    val out = produced.getOrElse(sys.error("no step output to check"))
    val t = out.step
    Alloc.requireValid(out.res.toMap, out.graph.ids, k)
    require(out.eval.nTx == stepTx(t),
      s"Metrics.evaluate saw ${out.eval.nTx} transactions, step $t has ${stepTx(t)}")
    Checks.totalWeight(out.graph, baseTx + stepTx.iterator.take(t + 1).sum)
    if (reference(t) == null) {
      reference(t) = out.res
      stepThroughput(t) = out.eval.normThroughput
    } else
      require(java.util.Arrays.equals(reference(t).ids, out.res.ids) &&
              java.util.Arrays.equals(reference(t).assign, out.res.assign),
        s"A-TxAllo mapping of step $t differs from its first pass")
  }

  def cleanup(): Unit = {
    produced.foreach(_.txAcc.unpersist())
    produced = None
  }
}

object AStep {
  /** What one step produced, kept for the checks after its timed window. */
  private final case class Produced(step: Int, graph: Graph, res: AllocResult,
                                    eval: MetricsResult, txAcc: DataFrame)
}
