package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.chain.ChainParams

/** One benchmark workload. `Bench` calls `setup` `setupReps` times, runs
  * `warmupOps` untimed operations, then timed operations until the run's
  * seconds are spent (at least `minOps`). Each operation is followed by
  * `check` (throws if an output is wrong) and `cleanup`; a failed operation
  * is followed by `reset`.
  */
trait Workload {
  def setupReps: Int
  def warmupOps: Int
  def minOps: Int
  def setup(rep: Int): Unit
  def reset(): Unit
  def operation(): Unit
  /** Traced runs only: calls made after an operation's timed window. */
  def probe(): Unit
  def check(): Unit
  def cleanup(): Unit
  /** Lambda/lambda of the TxAllo mapping, known after the first checked operation. */
  def normThroughput: Double
}

object Workload {
  /** The workloads BENCHMARK.json lists. A second cell point (k=60,
    * eta=10) did not fit the benchmark's time budget; see README.md.
    */
  val names: Seq[String] = Seq("cell-k20-eta2", "astep-k20-eta2")

  def apply(name: String, spark: SparkSession, params: ChainParams, tr: Trace): Workload =
    name match {
      case "cell-k20-eta2"  => new SweepCell(spark, params, k = 20, eta = 2.0, tr)
      case "astep-k20-eta2" => new AStep(spark, params, k = 20, eta = 2.0, tr)
      case other => throw new IllegalArgumentException(
        s"unknown workload $other (known: ${names.mkString(", ")})")
    }
}
