package repro.eval

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Per-shard load of an allocation under the blockchain model (Section III-B).
  *
  * @param shard   shard index
  * @param txIntra number of intra-shard transactions processed here
  * @param txCross number of cross-shard transactions this shard participates in
  * @param sigma   workload = txIntra + eta * txCross
  * @param lamHat  capacity-sufficient throughput = sum over processed tx of 1/mu
  */
final case class ShardLoad(shard: Int, txIntra: Long, txCross: Long,
                           sigma: Double, lamHat: Double)

/** Blockchain-level evaluation of an account-shard mapping (Eqs. 1-4).
  *
  * @param gamma          cross-shard transaction ratio
  * @param rho            population std-dev of per-shard workloads (Eq. 1)
  * @param throughput     Lambda (Eq. 2 with the Eq. 3 capacity clip)
  * @param normThroughput Lambda / lambda — "x times a non-sharded chain"
  * @param avgLatency     mean of per-shard average latencies (Eq. 4)
  * @param worstLatency   latency of the most loaded shard
  */
final case class MetricsResult(
    k: Int, eta: Double, lambda: Double, nTx: Long,
    gamma: Double, rho: Double, throughput: Double, normThroughput: Double,
    avgLatency: Double, worstLatency: Double,
    shards: Seq[ShardLoad])

/** Computes the paper's blockchain-level metrics in one driver pass over the
  * collected inputs. A transaction's mu is the number of distinct shards its
  * accounts map to (Definition `T_i = { Tx | A_Tx intersect A_i != empty }`).
  * Transactions are summed in ascending txId, so no result depends on Spark
  * partitioning. Checked against DuckDB by `repro.eval.MetricsSpec`.
  */
object Metrics {

  /** @param txAccounts (txId: Long, account: Long) exploded transaction pairs
    * @param alloc      (account: Long, shard: Int) full account-shard mapping
    * @param k          number of shards
    * @param eta        cross-shard workload factor
    * @param lambdaOpt  per-shard capacity; defaults to the paper's |T| / k
    */
  def evaluate(txAccounts: DataFrame, alloc: DataFrame, k: Int, eta: Double,
               lambdaOpt: Option[Double] = None): MetricsResult = {
    val shardOf = mutable.LongMap.empty[Int]
    alloc.select("account", "shard").collect().foreach { r =>
      val (a, s) = (r.getLong(0), r.getInt(1))
      require(s >= 0 && s < k, s"account $a mapped to shard $s outside [0,$k)")
      require(shardOf.put(a, s).isEmpty, s"account $a mapped to more than one shard")
    }
    // One key `txRank << 32 | shard` per pair, txRank being the position of
    // the txId in the sorted txIds: the sorted keys run in ascending txId.
    val pairs = txAccounts.select("txId", "account").collect()
    val txIds = pairs.map(_.getLong(0)).sorted
    val keys = pairs.map { r =>
      val a = r.getLong(1)
      val s = shardOf.getOrElse(a, throw new IllegalArgumentException(s"account $a unallocated"))
      java.util.Arrays.binarySearch(txIds, r.getLong(0)).toLong << 32 | s
    }.sorted
    val firsts = Array.range(0, keys.length).filter(i => i == 0 || keys(i) != keys(i - 1))
    val mu = new Array[Int](keys.length) // distinct shards, by txRank
    firsts.foreach(i => mu((keys(i) >>> 32).toInt) += 1)
    val intra, cross = new Array[Long](k)
    val lamHats = new Array[Double](k)
    firsts.foreach { i =>
      val (m, s) = (mu((keys(i) >>> 32).toInt), keys(i).toInt)
      if (m == 1) intra(s) += 1 else cross(s) += 1
      lamHats(s) += 1.0 / m
    }
    val nTx = mu.count(_ > 0)
    require(nTx > 0, "no transactions to evaluate")
    val gamma = mu.count(_ > 1).toDouble / nTx
    val lambda = lambdaOpt.getOrElse(nTx.toDouble / k)

    val shards = (0 until k).map { s =>
      ShardLoad(s, intra(s), cross(s), intra(s) + eta * cross(s), lamHats(s))
    }

    val sigmas = shards.map(_.sigma)
    val mean = sigmas.sum / k
    val rho = math.sqrt(sigmas.map(x => (x - mean) * (x - mean)).sum / k)
    val throughput = shards.map { sl =>
      if (sl.sigma <= lambda) sl.lamHat else lambda / sl.sigma * sl.lamHat
    }.sum
    val latencies = sigmas.map(s => Latency.avgLatency(s / lambda))

    MetricsResult(
      k = k, eta = eta, lambda = lambda, nTx = nTx,
      gamma = gamma, rho = rho,
      throughput = throughput, normThroughput = throughput / lambda,
      avgLatency = latencies.sum / k, worstLatency = latencies.max,
      shards = shards)
  }
}
