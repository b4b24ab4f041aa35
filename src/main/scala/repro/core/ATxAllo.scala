package repro.core

/** A-TxAllo (paper Algorithm 2): adaptive allocation update.
  *
  * Inputs: the *current* full transaction graph (previous history merged with
  * the newly committed blocks), the previous account-shard mapping, and the
  * set V-hat of accounts appearing in the new blocks. The previous mapping
  * seeds `MoveLoop.run`, so only new accounts are join-allocated (Eq. 6) and
  * only they and V-hat are re-optimized (Eq. 8): O(|V-hat| * k) node visits
  * per sweep, constant per step as the chain grows.
  */
object ATxAllo {

  /** @param g          merged transaction graph over the full history
    * @param prevAssign previous mapping, account id -> shard in [0, k)
    * @param active     V-hat: account ids appearing in newly committed blocks
    */
  def run(g: Graph, prevAssign: Map[Long, Int], active: Set[Long],
          params: TxAlloParams): AllocResult = {
    val t0 = System.nanoTime()
    val st = new AllocState(g, params)

    // Previous allocations carry over; anything else (new accounts, or
    // stragglers never allocated) starts Unassigned.
    var v = 0
    while (v < g.n) {
      prevAssign.get(g.ids(v)).foreach { s =>
        require(s >= 0 && s < params.k, s"previous shard $s out of range for k=${params.k}")
        st.comm(v) = s
      }
      v += 1
    }

    MoveLoop.run(st, active.iterator.map(g.indexOf).filter(_ >= 0), t0)
  }
}
