package repro.jobs

import repro.harness.{Evolution, EvolutionConfig, EvolutionResult, Sweep, SweepConfig, SweepResult, Tables}

/** spark-submit entry point for the reproduced tables:
  *
  *   TableJob <T2..T10> [sf]
  *
  * T2-T8 (paper Figs. 2-8) render the G-TxAllo comparison sweep, T9-T10
  * (Figs. 9-10) the A-TxAllo evolution stream. The scale factor defaults to
  * 0.1, the benchmark scale; tests use 0.01.
  */
object TableJob {

  private val sweepTables: Map[String, SweepResult => String] = Map(
    "T2" -> (Tables.sweepTable("T2 cross-shard transaction ratio gamma", _, _.gamma)),
    "T3" -> (Tables.sweepTable("T3 workload balance rho / lambda", _, _.rhoNorm)),
    "T4" -> Tables.caseStudyTable,
    "T5" -> (Tables.sweepTable("T5 normalized throughput Lambda/lambda", _, _.normThroughput)),
    "T6" -> (Tables.sweepTable("T6 average confirmation latency zeta [blocks]", _, _.avgLatency)),
    "T7" -> (Tables.sweepTable("T7 worst-case latency [blocks]", _, _.worstLatency)),
    "T8" -> Tables.runningTimeTable)

  private val evolutionTables: Map[String, EvolutionResult => String] = Map(
    "T9" -> Tables.evolutionTable,
    "T10" -> Tables.adaptiveTimeTable)

  def main(args: Array[String]): Unit = {
    val table = args.headOption.getOrElse("")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.1)
    require(sweepTables.contains(table) || evolutionTables.contains(table),
            s"usage: TableJob <T2..T10> [sf]; unknown table '$table'")
    val spark = JobUtil.session(s"TxAllo-$table")
    println(
      if (sweepTables.contains(table)) sweepTables(table)(Sweep.run(spark, SweepConfig(sf = sf)))
      else evolutionTables(table)(Evolution.run(spark, EvolutionConfig(sf = sf))))
  }
}
