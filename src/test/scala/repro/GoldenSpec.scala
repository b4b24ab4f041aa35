package repro

import java.util.Arrays.{hashCode => h}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GTxAllo, Graph, Louvain, TxAlloParams}
import repro.metis.Metis

/** Golden outputs of the driver-side pipeline on two fixed test graphs.
  *
  * The paper (Section IV-A) requires every miner to compute the identical
  * mapping, so a refactor of the graph builder or of an allocator must keep
  * every bit. The values were recorded with the boxed-map graph builders
  * (before `Graph` had a single builder) and must never be re-recorded to let
  * a change through; a change that alters them alters the mappings.
  */
class GoldenSpec extends AnyFunSuite {

  // The random graph is dense (900 edges over 60 nodes), so many pairs and
  // self-loops repeat three or more times and the pins also fix the order in
  // which duplicate weights are summed.
  private val graphs: Seq[(String, () => Graph)] = Seq(
    "randomGraph" -> (() => TestUtil.randomGraph(60, 900, 40, seed = 11)),
    "planted" -> (() => TestUtil.planted(6, 25, 60, 40, seed = 5)._1))

  /** name -> (n, hash nbr, hash wgt, hash self, hash Louvain labels, number of
    * communities, hash METIS k=4, hash G-TxAllo assign at k=4, eta=2, sweeps).
    */
  private val golden = Map(
    "randomGraph" -> (60, -1799114402, -729252943, 1892142343, 165794128, 6, 1392427327, 536135327, 3),
    "planted" -> (150, -601323771, 1852311553, 723290433, 125866180, 6, 1167687674, 1856472666, 2))

  for ((name, build) <- graphs) {
    lazy val g = build()
    val (n, nbr, wgt, self, louvain, l, metis, gtx, sweeps) = golden(name)

    test(s"$name: graph arrays") {
      assert(g.n == n)
      assert((h(g.nbr), h(g.wgt), h(g.self)) == ((nbr, wgt, self)))
    }

    test(s"$name: Louvain labels") {
      val labels = Louvain.cluster(g)
      assert(labels.max + 1 == l)
      assert(h(labels) == louvain)
    }

    test(s"$name: METIS partition at k=4") {
      assert(h(Metis.partition(g, 4)) == metis)
    }

    test(s"$name: G-TxAllo assign at k=4, eta=2") {
      val r = GTxAllo.run(g, TxAlloParams.default(g, 4, 2.0))
      assert(r.sweeps == sweeps)
      assert(h(r.assign) == gtx)
    }
  }
}
