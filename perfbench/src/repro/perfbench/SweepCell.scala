package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.alloc.{Alloc, HashAllocator, ShardScheduler}
import repro.chain.{ChainParams, TxGen}
import repro.core.{AllocResult, GTxAllo, Graph, Louvain, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}
import repro.metis.Metis

/** One T2-T8 sweep cell at (k, eta), as `repro.harness.Sweep` runs it:
  * generate the ledger, build the graph, allocate with all four methods
  * (Hash, METIS, Shard Scheduler, G-TxAllo) and evaluate each allocation.
  * Every cell regenerates the ledger from the same seed, so repeated cells
  * must agree bit for bit.
  */
final class SweepCell(spark: SparkSession, params: ChainParams, k: Int, eta: Double,
                      tr: Trace) extends Workload {

  private var reference: Option[AllocResult] = None
  private var produced: Option[SweepCell.Produced] = None
  var normThroughput: Double = Double.NaN

  def setupReps: Int = 1
  def warmupOps: Int = 1
  def minOps: Int = 1
  def setup(rep: Int): Unit = ()
  def reset(): Unit = ()

  def operation(): Unit = produced = Some(cell())

  private def cell(): SweepCell.Produced = {
    val (txs, txAcc, accountsDf, nTx) = tr("txgen") {
      val txs = TxGen.transactions(spark, params).cache()
      val txAcc = TxGen.txAccounts(txs).cache()
      val accountsDf = TxGen.accounts(txs).cache()
      val nTx = txs.count()
      txAcc.count()
      accountsDf.count()
      (txs, txAcc, accountsDf, nTx)
    }
    tr.count("txgen.tx", nTx.toDouble)
    // The body of TxGraph.collect, split so the Spark stage and the CSR
    // build are timed apart.
    val edges = tr("txgraph") {
      TxGraph.edges(txs).select("src", "dst", "weight").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    }
    tr.count("txgraph.edges", edges.length.toDouble)
    val g = tr("graph.build")(Graph.fromEdges(edges))
    tr.count("graph.nodes", g.n.toDouble)

    val p = TxAlloParams.default(g, k, eta)
    val gtx = tr("gtxallo")(GTxAllo.run(g, p))
    tr.count("gtxallo.sweeps", gtx.sweeps.toDouble)
    tr.count("gtxallo.converged", if (gtx.sweeps < p.maxSweeps) 1.0 else 0.0)
    val (metisMap, _) = tr("metis")(Metis.allocate(g, k))
    val txSeq = tr("scheduler.ledger") {
      txs.select("txId", "accounts").sort("txId").collect()
        .map(r => (r.getLong(0), r.getSeq[Long](1).toArray))
    }
    val (schedMap, _) = tr("scheduler")(ShardScheduler.allocate(txSeq.iterator, k, eta))
    val hashDf = tr("hash") {
      val h = HashAllocator.allocate(accountsDf, k).cache()
      h.count()
      h
    }

    val metisDf = tr("alloc.todf")(Alloc.toDf(spark, metisMap))
    val schedDf = tr("alloc.todf")(Alloc.toDf(spark, schedMap))
    val (gtxMap, gtxDf) = tr("alloc.todf") {
      val m = gtx.toMap
      (m, Alloc.toDf(spark, m))
    }
    val evals = Seq(hashDf, metisDf, schedDf, gtxDf)
      .map(df => tr("metrics")(Metrics.evaluate(txAcc, df, k, eta)))
    SweepCell.Produced(nTx, g, gtx,
      Seq("METIS" -> metisMap, "Scheduler" -> schedMap, "G-TxAllo" -> gtxMap),
      hashDf, accountsDf, evals, Seq(txs, txAcc, accountsDf, hashDf))
  }

  def probe(): Unit = produced.foreach { out =>
    val t0 = System.nanoTime()
    val labels = Louvain.cluster(out.graph)
    tr.count("louvain.s", (System.nanoTime() - t0) / 1e9)
    tr.count("louvain.communities", if (labels.isEmpty) 0.0 else labels.max + 1.0)
  }

  def check(): Unit = {
    val out = produced.getOrElse(sys.error("no cell output to check"))
    val accounts = out.accountsDf.collect().map(_.getLong(0))
    val hashMap = out.hashDf.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    (("Hash" -> hashMap) +: out.maps).foreach { case (method, m) =>
      try Alloc.requireValid(m, accounts, k)
      catch { case e: Exception => throw new IllegalStateException(s"$method: ${e.getMessage}") }
    }
    out.evals.foreach { m =>
      require(m.nTx == out.nTx, s"Metrics.evaluate saw ${m.nTx} transactions, ${out.nTx} generated")
    }
    Checks.totalWeight(out.graph, out.nTx)
    reference match {
      case None => reference = Some(out.gtx); normThroughput = out.evals.last.normThroughput
      case Some(ref) =>
        require(java.util.Arrays.equals(ref.ids, out.gtx.ids) &&
                java.util.Arrays.equals(ref.assign, out.gtx.assign),
          "G-TxAllo mapping differs from the first cell of this run")
    }
  }

  def cleanup(): Unit = {
    produced.foreach(_.cached.foreach(_.unpersist()))
    produced = None
  }
}

object SweepCell {
  /** What one cell produced, kept for the checks after its timed window. */
  private final case class Produced(
      nTx: Long, graph: Graph, gtx: AllocResult,
      maps: Seq[(String, Map[Long, Int])], hashDf: DataFrame, accountsDf: DataFrame,
      evals: Seq[MetricsResult], cached: Seq[DataFrame])
}

object Checks {
  /** Every transaction distributes total weight 1, so the graph weighs nTx. */
  def totalWeight(g: Graph, nTx: Long): Unit =
    require(math.abs(g.totalWeight - nTx) <= 1e-9 * math.max(nTx, 1L),
      s"graph weight ${g.totalWeight} differs from $nTx transactions")
}
