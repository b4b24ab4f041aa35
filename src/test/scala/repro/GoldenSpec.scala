package repro

import java.util.Arrays.{hashCode => h}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ATxAllo, GTxAllo, Graph, Louvain, TxAlloParams}
import repro.metis.Metis

/** Golden outputs of the driver-side pipeline on three fixed test graphs.
  *
  * The paper (Section IV-A) requires every miner to compute the identical
  * mapping, so a refactor of the graph builder or of an allocator must keep
  * every bit. The graph, Louvain, METIS and G-TxAllo values were recorded with
  * the boxed-map graph builders (before `Graph` had a single builder); the
  * A-TxAllo values and the third graph were recorded before G-TxAllo and
  * A-TxAllo shared one move-loop driver. None may be re-recorded to let a
  * change through; a change that alters them alters the mappings.
  */
class GoldenSpec extends AnyFunSuite {
  import GoldenSpec.Pins

  // The random graphs are dense (900 edges over 60 nodes), so many pairs and
  // self-loops repeat three or more times and the pins also fix the order in
  // which duplicate weights are summed. The 1000-node graph is the only one
  // METIS coarsens more than once (targetN = 128).
  private val graphs: Seq[(String, () => Graph)] = Seq(
    "randomGraph" -> (() => TestUtil.randomGraph(60, 900, 40, seed = 11)),
    "planted" -> (() => TestUtil.planted(6, 25, 60, 40, seed = 5)._1),
    "randomGraph1000" -> (() => TestUtil.randomGraph(1000, 4000, 40, seed = 13)))

  private val golden = Map(
    "randomGraph" -> Pins(60, -1799114402, -729252943, 1892142343, 165794128, 6, 1392427327,
                          536135327, 3, -1238078686, 1),
    "planted" -> Pins(150, -601323771, 1852311553, 723290433, 125866180, 6, 1167687674,
                      1856472666, 2, 1770217017, 1),
    "randomGraph1000" -> Pins(1000, 1685013172, 1202415579, -1228214065, 512710308, 16, 1771968801,
                              1507401719, 10, -1734170579, 1))

  /** The A-TxAllo step: 20 edges from new accounts 1000..1019 to every third
    * existing account; V-hat is their endpoints.
    */
  private val batch = (0 until 20).map(i => ((1000 + i).toLong, (i * 3).toLong, 1.0))

  for ((name, build) <- graphs) {
    lazy val g = build()
    val pin = golden(name)

    test(s"$name: graph arrays") {
      assert(g.n == pin.n)
      assert((h(g.nbr), h(g.wgt), h(g.self)) == ((pin.nbr, pin.wgt, pin.self)))
    }

    test(s"$name: Louvain labels") {
      val labels = Louvain.cluster(g)
      assert(labels.max + 1 == pin.l)
      assert(h(labels) == pin.louvain)
    }

    test(s"$name: METIS partition at k=4") {
      assert(h(Metis.partition(g, 4)) == pin.metis)
    }

    test(s"$name: G-TxAllo assign at k=4, eta=2") {
      val r = GTxAllo.run(g, TxAlloParams.default(g, 4, 2.0))
      assert(r.sweeps == pin.gtxSweeps)
      assert(h(r.assign) == pin.gtx)
    }

    test(s"$name: A-TxAllo step from the G-TxAllo mapping at k=4, eta=2") {
      val prev = GTxAllo.run(g, TxAlloParams.default(g, 4, 2.0)).toMap
      val merged = Graph.merge(g, batch)
      val active = batch.iterator.flatMap(e => Iterator(e._1, e._2)).toSet
      val r = ATxAllo.run(merged, prev, active, TxAlloParams.default(merged, 4, 2.0))
      assert(r.sweeps == pin.atxSweeps)
      assert(h(r.assign) == pin.atx)
    }
  }
}

object GoldenSpec {

  /** Pinned hashes: graph arrays, Louvain labels and their community count,
    * METIS at k=4, G-TxAllo at k=4, eta=2 with its sweeps, and one A-TxAllo
    * step from that mapping with its sweeps.
    */
  final case class Pins(n: Int, nbr: Int, wgt: Int, self: Int, louvain: Int, l: Int,
                        metis: Int, gtx: Int, gtxSweeps: Int, atx: Int, atxSweeps: Int)
}
