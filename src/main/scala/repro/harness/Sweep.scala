package repro.harness

import org.apache.spark.sql.SparkSession
import repro.alloc.{Alloc, HashAllocator, ShardScheduler}
import repro.chain.{ChainParams, TxGen}
import repro.core.{GTxAllo, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}
import repro.metis.Metis

/** Configuration of the G-TxAllo comparison sweep (paper Figs. 2-8 -> tables
  * T2-T8). The paper sweeps k in 2..60 and eta in 2..10 over the 91M-tx
  * Ethereum ledger; we sweep a representative grid over the synthetic ledger
  * at a configurable scale factor (DESIGN.md "Scale mapping").
  */
final case class SweepConfig(
    sf: Double = 0.1,
    ks: Seq[Int] = Seq(2, 10, 20, 40, 60),
    etas: Seq[Double] = Seq(2.0, 5.0, 10.0),
    caseStudyK: Int = 20,
    caseStudyEta: Double = 2.0,
    seed: Long = 42L)

/** One (method, k, eta) cell of the sweep, carrying every T2-T8 metric.
  * `converged` is G-TxAllo's flag (`AllocResult.converged`); the baselines
  * have no convergence criterion and report true.
  */
final case class SweepRow(method: String, k: Int, eta: Double,
                          metrics: MetricsResult, allocMillis: Long, converged: Boolean) {
  def gamma: Double = metrics.gamma
  def rho: Double = metrics.rho
  def normThroughput: Double = metrics.normThroughput
  def avgLatency: Double = metrics.avgLatency
  def worstLatency: Double = metrics.worstLatency
  /** rho normalized by lambda so balance is comparable across k. */
  def rhoNorm: Double = metrics.rho / metrics.lambda
}

final case class SweepResult(cfg: SweepConfig, nTx: Long, nAccounts: Long,
                             rows: Seq[SweepRow])

/** Runs the 4-method comparison (Hash / METIS / Shard Scheduler / G-TxAllo)
  * across the (k, eta) grid. Generation, graph construction and the hash
  * allocation run on Spark; the other allocators and every metric evaluation
  * run on the driver. The allocators are timed individually (T8).
  */
object Sweep {

  val MethodHash = "Hash"
  val MethodMetis = "METIS"
  val MethodScheduler = "Scheduler"
  val MethodTxAllo = "G-TxAllo"
  val Methods: Seq[String] = Seq(MethodHash, MethodMetis, MethodScheduler, MethodTxAllo)

  def run(spark: SparkSession, cfg: SweepConfig): SweepResult = {
    val params = ChainParams.atScale(cfg.sf, cfg.seed)
    val txs = TxGen.transactions(spark, params).cache()
    val txAcc = TxGen.txAccounts(txs).cache()
    val accountsDf = TxGen.accounts(txs).cache()
    val nTx = txs.count()
    val nAccounts = accountsDf.count()

    val g = TxGraph.fromTxs(txs)
    // Chronological stream for the transaction-level baseline.
    val txSeq = txs
      .select("txId", "accounts")
      .sort("txId")
      .collect()
      .map(r => (r.getLong(0), r.getSeq[Long](1).toArray))

    val rows = Seq.newBuilder[SweepRow]
    for (k <- cfg.ks) {
      // Hash: measure the materialization of the mapping.
      val t0 = System.nanoTime()
      val hashDf = HashAllocator.allocate(accountsDf, k).cache()
      hashDf.count()
      val hashMs = (System.nanoTime() - t0) / 1000000L

      val (metisMap, metisMs) = Metis.allocate(g, k)
      val metisDf = Alloc.toDf(spark, metisMap)
      // The scheduler's mapping does not depend on eta: one run per k.
      val (schedMap, schedMs) = ShardScheduler.allocate(txSeq.iterator, k, eta = 1.0)
      val schedDf = Alloc.toDf(spark, schedMap)

      for (eta <- cfg.etas) {
        val gtx = GTxAllo.run(g, TxAlloParams.default(g, k, eta))
        val gtxDf = Alloc.toDf(spark, gtx.toMap)

        rows += SweepRow(MethodHash, k, eta, Metrics.evaluate(txAcc, hashDf, k, eta), hashMs, true)
        rows += SweepRow(MethodMetis, k, eta, Metrics.evaluate(txAcc, metisDf, k, eta), metisMs, true)
        rows += SweepRow(MethodScheduler, k, eta, Metrics.evaluate(txAcc, schedDf, k, eta), schedMs, true)
        rows += SweepRow(MethodTxAllo, k, eta, Metrics.evaluate(txAcc, gtxDf, k, eta), gtx.millis,
                         gtx.converged)
      }
      hashDf.unpersist()
    }
    txs.unpersist(); txAcc.unpersist(); accountsDf.unpersist()
    SweepResult(cfg, nTx, nAccounts, rows.result())
  }
}
