package repro.metis

import repro.core.Graph

/** METIS-like multilevel k-way partitioner (baseline of Fynn et al. /
  * BrokerChain; see DESIGN.md substitution #2).
  *
  * Recursive multilevel scheme (Karypis & Kumar, SIAM J. Sci. Comput. 1998):
  * coarsen by heavy-edge matching, partition the coarse graph, project the
  * parts back and refine them FM-style; the coarsest graph gets a greedy
  * weighted seeding. The objective is minimal edge cut under *vertex-weight*
  * balance; the paper's point is precisely that this objective ignores the
  * cross-shard workload factor eta, so METIS allocations overload the hub
  * account's shard.
  */
object Metis {

  /** Allowed vertex-weight imbalance: each part stays under (1 + 5%) of the mean. */
  private val Imbalance = 0.05

  /** @return shard per node index, values in [0, k), deterministic. */
  def partition(g: Graph, k: Int): Array[Int] = {
    require(k >= 1, "k must be >= 1")
    if (g.n == 0) return Array.emptyIntArray
    if (k == 1) return new Array[Int](g.n)

    // Vertex weight is *activity* (W_v + 2 w_vv, the account's total
    // transaction involvement) — METIS balances this, NOT the blockchain
    // workload, which is exactly the mismatch the paper criticizes
    // (Section II-C) and which our evaluation must reproduce.
    val nodeW = Array.tabulate(g.n)(v => g.strength(v) + 2 * g.self(v))
    // METIS maxvwgt: coarse nodes stay individually balanceable.
    multilevel(g, nodeW, k, math.max(4 * k, 128), nodeW.sum / (3.0 * k))
  }

  /** Partition `g` (vertex weights `nodeW`) and refine the result. Above
    * `targetN` nodes, one heavy-edge matching coarsens the graph, the coarse
    * graph is partitioned recursively and its parts are projected back
    * through the fine->coarse map. At or below `targetN` nodes, or when the
    * matching stalls (< 5% shrink), the graph is seeded directly.
    */
  private def multilevel(g: Graph, nodeW: Array[Double], k: Int, targetN: Int,
                         maxNodeW: Double): Array[Int] = {
    val coarsened =
      if (g.n <= targetN) None
      else Some(Coarsening.coarsenOnce(g, nodeW, maxNodeW)).filter(_._1.n < g.n * 0.95)
    val part = coarsened match {
      case Some((coarse, coarseW, map)) =>
        val coarsePart = multilevel(coarse, coarseW, k, targetN, maxNodeW)
        Array.tabulate(g.n)(v => coarsePart(map(v)))
      case None => InitialPartition.seed(g, nodeW, k, Imbalance)
    }
    Refinement.refine(g, nodeW, part, k, Imbalance)
  }

  /** Timed run keyed by account id (the harness-facing entrypoint). */
  def allocate(g: Graph, k: Int): (Map[Long, Int], Long) = {
    val t0 = System.nanoTime()
    val part = partition(g, k)
    val millis = (System.nanoTime() - t0) / 1000000L
    (g.ids.iterator.zip(part.iterator).toMap, millis)
  }
}
