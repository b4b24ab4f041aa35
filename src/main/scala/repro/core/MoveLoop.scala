package repro.core

/** The one driver of Algorithms 1 and 2. G-TxAllo and A-TxAllo differ only in
  * their starting mapping and in the node set they re-optimize (paper
  * Section IV-C). Nodes are visited in ascending node index (= ascending
  * account id), the paper's deterministic order.
  */
private[core] object MoveLoop {

  /** Join-allocate the nodes left unassigned in `st.comm` (Eq. 6), then sweep
    * them and `active` by total gain (Eq. 8) until the per-sweep gain drops
    * below epsilon or `maxSweeps` is reached. State is recomputed from
    * scratch after the join phase and after every sweep to kill
    * floating-point drift. `t0` is the caller's `System.nanoTime()` start.
    */
  def run(st: AllocState, active: Iterator[Int], t0: Long): AllocResult = {
    st.recompute()
    val unassigned = (0 until st.g.n).filter(st.comm(_) == AllocState.Unassigned)
    joinPhase(st, unassigned)
    st.recompute()
    val initThroughput = st.totalThroughput

    val order = (unassigned.iterator ++ active).toArray.distinct.sorted
    var sweeps = 0
    var delta = Double.PositiveInfinity
    while (delta >= st.params.epsilon && sweeps < st.params.maxSweeps) {
      delta = sweep(st, order)
      st.recompute()
      sweeps += 1
    }

    AllocResult(
      ids = st.g.ids,
      assign = st.comm.clone(),
      initThroughput = initThroughput,
      finalThroughput = st.totalThroughput,
      sweeps = sweeps,
      converged = delta < st.params.epsilon,
      millis = (System.nanoTime() - t0) / 1000000L)
  }

  /** Allocate every node of `order` (must currently be Unassigned) into the
    * community with the largest join gain (Algorithm 1 lines 2-9 /
    * Algorithm 2 lines 1-8). If a node connects to no assigned community,
    * all k communities are candidates (the paper's forced C_v). Ties prefer
    * the lighter, then lower-indexed community.
    */
  private def joinPhase(st: AllocState, order: Iterable[Int]): Unit = {
    val k = st.k
    order.foreach { v =>
      val nt = st.gatherNeighborWeights(v)
      var best = -1
      var bestGain = Double.NegativeInfinity
      var bestW = 0.0
      if (nt == 0) {
        var q = 0
        while (q < k) {
          val gain = st.joinGain(v, q, 0.0)
          if (better(st, gain, q, bestGain, best)) { best = q; bestGain = gain; bestW = 0.0 }
          q += 1
        }
      } else {
        var t = 0
        while (t < nt) {
          val q = st.touchedComm(t)
          val w = st.weightTo(q)
          val gain = st.joinGain(v, q, w)
          if (better(st, gain, q, bestGain, best)) { best = q; bestGain = gain; bestW = w }
          t += 1
        }
      }
      st.clearScratch(nt)
      st.applyJoin(v, best, bestW)
    }
  }

  /** One optimization sweep over `order` (Algorithm 1 lines 10-19 /
    * Algorithm 2 lines 9-17): each node may move to a connected community
    * when the total throughput gain (leave + join, Eq. 8) is strictly
    * positive. Returns the sweep's total gain.
    */
  private def sweep(st: AllocState, order: Array[Int]): Double = {
    var delta = 0.0
    var i = 0
    while (i < order.length) {
      val v = order(i)
      val p = st.comm(v)
      val nt = st.gatherNeighborWeights(v)
      val lg = st.leaveGain(v, st.weightTo(p))
      var best = -1
      var bestGain = 0.0 // only strictly positive total gains move v
      var bestW = 0.0
      var t = 0
      while (t < nt) {
        val q = st.touchedComm(t)
        if (q != p) {
          val gain = lg + st.joinGain(v, q, st.weightTo(q))
          if (gain > bestGain + 1e-12 ||
              (best >= 0 && math.abs(gain - bestGain) <= 1e-12 && beats(st, q, best))) {
            best = q; bestGain = gain; bestW = st.weightTo(q)
          }
        }
        t += 1
      }
      val wvp = st.weightTo(p)
      st.clearScratch(nt)
      if (best >= 0) {
        st.applyMove(v, best, wvp, bestW)
        delta += bestGain
      }
      i += 1
    }
    delta
  }

  /** Candidate comparison: strictly larger gain wins; ties prefer the lighter
    * (smaller sigma), then lower-indexed community — deterministic and
    * balance-friendly for isolated nodes.
    */
  @inline private def better(st: AllocState, gain: Double, q: Int,
                             bestGain: Double, best: Int): Boolean =
    best < 0 || gain > bestGain + 1e-12 ||
      (math.abs(gain - bestGain) <= 1e-12 && beats(st, q, best))

  @inline private def beats(st: AllocState, q: Int, best: Int): Boolean =
    st.sigma(q) < st.sigma(best) - 1e-12 ||
      (math.abs(st.sigma(q) - st.sigma(best)) <= 1e-12 && q < best)
}
