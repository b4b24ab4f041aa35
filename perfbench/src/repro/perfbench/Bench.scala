package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.chain.ChainParams
import repro.jobs.JobUtil

/** Benchmark entry point: runs one workload and prints, as its last line,
  * `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
  * end-to-end metrics, traced runs the per-layer ones.
  *
  * Arguments: --workload NAME --seed N --seconds S --trace 0|1
  * [--sf SCALE] [--out DIR]
  */
object Bench {

  /** Ledger scale: 0.02 = 120K transactions, ~17K accounts. */
  val DefaultSf = 0.02

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        sf: Double, out: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "sf", "out")
    require(kv.keySet.subsetOf(known), s"unknown options: ${(kv.keySet -- known).mkString(", ")}")
    Args(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.get("seed").map(_.toLong).getOrElse(42L),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(15.0),
      trace = kv.get("trace").exists(_ == "1"),
      sf = kv.get("sf").map(_.toDouble).getOrElse(DefaultSf),
      out = kv.getOrElse("out", "perfbench/results"))
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val tr = new Trace(a.trace)
    val t0 = System.nanoTime()
    val spark = JobUtil.session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    val sessionS = (System.nanoTime() - t0) / 1e9
    try run(a, spark, tr, sessionS)
    finally spark.stop()
  }

  private def run(a: Args, spark: SparkSession, tr: Trace, sessionS: Double): Unit = {
    val params = ChainParams.atScale(a.sf, a.seed)
    val w = Workload(a.workload, spark, params, tr)

    var attempted = 0
    var failed = 0
    /** Runs one operation; returns its wall time if it passed its checks. */
    def attempt(id: String): Option[Double] = {
      attempted += 1
      try {
        val s = tr.operation(id)(w.operation())
        if (tr.enabled) tr.under(id)(w.probe())
        w.check()
        System.err.println(f"operation $id%s: $s%.3f s")
        Some(s)
      } catch {
        case NonFatal(e) =>
          failed += 1
          System.err.println(s"operation $id failed: $e")
          w.reset()
          None
      } finally w.cleanup()
    }

    val setupS = (0 until w.setupReps).map { r =>
      val s0 = System.nanoTime()
      tr.under(s"setup-$r")(w.setup(r))
      (System.nanoTime() - s0) / 1e9
    }
    val w0 = System.nanoTime()
    (0 until w.warmupOps).foreach(i => attempt(s"warmup-$i"))
    w.reset()
    val warmupS = (System.nanoTime() - w0) / 1e9

    val start = System.nanoTime()
    val timed = Seq.newBuilder[(String, Double)]
    var n = 0
    while (n < w.minOps || (System.nanoTime() - start) / 1e9 < a.seconds) {
      val id = s"op-$n"
      attempt(id).foreach(s => timed += id -> s)
      n += 1
    }
    val ops = timed.result()

    System.gc()
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("setup_s", sessionS + median(setupS) + warmupS, "s"),
        ("op_s", median(ops.map(_._2)), "s"),
        // NaN only when an operation failed, and then correct is false.
        ("norm_throughput", if (w.normThroughput.isNaN) 0.0 else w.normThroughput, "x"),
        ("heap_mb", heapMb, "MB"))
      else Layers.metrics(tr, ops.map(_._1), (0 until w.setupReps).map(r => s"setup-$r"))

    val settings = Settings.of(spark, a, w)
    val result = Json.obj(Seq(
      "correct" -> (failed == 0 && attempted > 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (name, v, unit) =>
        name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      })))

    val base = s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    val dir = Paths.get(a.out)
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$base.json"), Json.obj(Seq(
      "workload" -> Json.str(a.workload), "seed" -> a.seed.toString,
      "settings" -> settings, "result" -> result)).getBytes(StandardCharsets.UTF_8))
    if (a.trace)
      Files.write(dir.resolve(s"$base-spans.json"), tr.spansJson.getBytes(StandardCharsets.UTF_8))
    println(s"settings: $settings")
    println(result)
  }
}

/** The settings every number depends on, recorded with each result. */
object Settings {
  def of(spark: SparkSession, a: Bench.Args, w: Workload): String = {
    val conf = spark.conf
    Json.obj(Seq(
      "sf" -> Json.num(a.sf),
      "seconds" -> Json.num(a.seconds),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_version" -> Json.str(spark.version),
      "shuffle_partitions" -> Json.str(conf.get("spark.sql.shuffle.partitions")),
      "broadcast_threshold" -> Json.str(conf.get("spark.sql.autoBroadcastJoinThreshold")),
      "driver_heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "gc" -> Json.str(ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", ")),
      "warmup" -> Json.str(
        s"set-up repeated ${w.setupReps}x (median reported), then ${w.warmupOps} untimed " +
          s"operation(s), then timed operations for ${a.seconds} s (at least ${w.minOps})")))
  }
}
