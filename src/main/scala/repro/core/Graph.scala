package repro.core

/** Compact undirected weighted graph in CSR form (driver-side).
  *
  * Node ids are the original account ids; `ids` is sorted ascending and node
  * *indices* (0-based positions into `ids`) are what every algorithm loops
  * over, which makes the paper's required deterministic node order ("the hash
  * value of the accounts can determine the order") simply ascending account id.
  *
  * Each proper undirected edge is stored in both directions in (`nbr`,`wgt`);
  * self-loops live separately in `self` (the paper's w_{v,v}). `strength(v)`
  * is W_v = w_{v, V/v}, the total weight from v to *other* nodes — the exact
  * quantity used by the paper's gain equations.
  *
  * Every graph — built from an edge list, merged with new blocks, or
  * aggregated under a node -> cluster map — comes out of the one builder in
  * the companion, so rows are always sorted by neighbor index and duplicate
  * edges are always summed in insertion order.
  */
final class Graph private (
    val n: Int,
    val ids: Array[Long],
    val offsets: Array[Int],
    val nbr: Array[Int],
    val wgt: Array[Double],
    val self: Array[Double]) {

  /** W_v: total edge weight from v to other nodes (self-loops excluded). */
  val strength: Array[Double] = {
    val s = new Array[Double](n)
    var v = 0
    while (v < n) {
      var e = offsets(v)
      while (e < offsets(v + 1)) { s(v) += wgt(e); e += 1 }
      v += 1
    }
    s
  }

  /** Total graph weight: each proper edge once + self-loops. Equals the number
    * of transactions (every transaction distributes total weight 1).
    */
  val totalWeight: Double = strength.sum / 2.0 + self.sum

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Node index for an account id, or -1 if absent (binary search). */
  def indexOf(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else -1
  }

  /** Iterate neighbors of v: f(neighborIndex, weight). */
  @inline def foreachNbr(v: Int)(f: (Int, Double) => Unit): Unit = {
    var e = offsets(v)
    while (e < offsets(v + 1)) { f(nbr(e), wgt(e)); e += 1 }
  }

  /** Quotient graph under the node -> cluster map `labels` (values in
    * [0, nc)): cluster c becomes node c with id c, member self-loops and
    * intra-cluster edges become its self-loop, and inter-cluster edges are
    * summed. This is both Louvain's aggregation and METIS's coarsening step.
    */
  def quotient(labels: Array[Int], nc: Int): Graph = {
    require(labels.length == n, s"need one label per node: ${labels.length} != $n")
    val (us, vs, ws) = Graph.triples(this, labels, 0)
    Graph.build(Array.tabulate(nc)(_.toLong), us, vs, ws)
  }
}

object Graph {

  /** The empty graph. */
  val empty: Graph = new Graph(0, Array.emptyLongArray, Array(0), Array.emptyIntArray,
                               Array.emptyDoubleArray, Array.emptyDoubleArray)

  /** Build from an undirected weighted edge list keyed by account id.
    * `(v, v, w)` entries are self-loops. Duplicate pairs (in either direction)
    * are summed in input order. Deterministic: nodes sorted by id, adjacency
    * sorted by neighbor index.
    */
  def fromEdges(edges: Iterable[(Long, Long, Double)]): Graph = merge(empty, edges)

  /** Merge newly committed edges into an existing graph (A-TxAllo step). The
    * old graph's edges are summed first, so merging batches one at a time
    * gives the same bits as building from their concatenation.
    */
  def merge(g: Graph, newEdges: Iterable[(Long, Long, Double)]): Graph = {
    val es = newEdges.toArray
    val ids = distinctSorted(g.ids ++ es.map(_._1) ++ es.map(_._2))
    val index = (id: Long) => java.util.Arrays.binarySearch(ids, id)
    val (us, vs, ws) = triples(g, g.ids.map(index), es.length)
    val base = us.length - es.length
    for (i <- es.indices) {
      us(base + i) = index(es(i)._1); vs(base + i) = index(es(i)._2); ws(base + i) = es(i)._3
    }
    build(ids, us, vs, ws)
  }

  /** Sorts `xs` in place and returns its distinct values. */
  private def distinctSorted(xs: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(xs)
    var k = 0
    var i = 0
    while (i < xs.length) {
      if (k == 0 || xs(i) != xs(k - 1)) { xs(k) = xs(i); k += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(xs, k)
  }

  /** `g`'s self-loops and proper edges (each once) as index triples relabelled
    * by `labels`, node by node in index order, followed by `extra` free slots.
    */
  private def triples(g: Graph, labels: Array[Int],
                      extra: Int): (Array[Int], Array[Int], Array[Double]) = {
    val m = g.n + g.nbr.length / 2 + extra
    val us = new Array[Int](m)
    val vs = new Array[Int](m)
    val ws = new Array[Double](m)
    var i = 0
    var v = 0
    while (v < g.n) {
      us(i) = labels(v); vs(i) = labels(v); ws(i) = g.self(v); i += 1
      var e = g.offsets(v)
      while (e < g.offsets(v + 1)) {
        if (g.nbr(e) > v) { us(i) = labels(v); vs(i) = labels(g.nbr(e)); ws(i) = g.wgt(e); i += 1 }
        e += 1
      }
      v += 1
    }
    (us, vs, ws)
  }

  /** The one CSR builder. Triple i is the undirected edge (us(i), vs(i)) of
    * weight ws(i) over node indices into `ids`; us(i) == vs(i) is a
    * self-loop. Duplicates in either direction are summed in triple order:
    * each row is sorted on the primitive key (neighbor << 32 | triple index),
    * which orders it by neighbor and a neighbor's duplicates by insertion.
    */
  private def build(ids: Array[Long], us: Array[Int], vs: Array[Int], ws: Array[Double]): Graph = {
    val n = ids.length
    val self = new Array[Double](n)
    val start = new Array[Int](n + 1)
    var i = 0
    while (i < us.length) {
      if (us(i) == vs(i)) self(us(i)) += ws(i)
      else { start(us(i) + 1) += 1; start(vs(i) + 1) += 1 }
      i += 1
    }
    var v = 0
    while (v < n) { start(v + 1) += start(v); v += 1 }

    val keys = new Array[Long](start(n))
    val cursor = java.util.Arrays.copyOf(start, n)
    i = 0
    while (i < us.length) {
      val a = us(i); val b = vs(i)
      if (a != b) {
        keys(cursor(a)) = b.toLong << 32 | i; cursor(a) += 1
        keys(cursor(b)) = a.toLong << 32 | i; cursor(b) += 1
      }
      i += 1
    }

    val offsets = new Array[Int](n + 1)
    val nbr = new Array[Int](keys.length)
    val wgt = new Array[Double](keys.length)
    var o = 0
    v = 0
    while (v < n) {
      java.util.Arrays.sort(keys, start(v), start(v + 1))
      var e = start(v)
      while (e < start(v + 1)) {
        val u = (keys(e) >>> 32).toInt
        if (o == offsets(v) || nbr(o - 1) != u) { nbr(o) = u; o += 1 }
        wgt(o - 1) += ws(keys(e).toInt)
        e += 1
      }
      offsets(v + 1) = o
      v += 1
    }
    new Graph(n, ids, offsets, java.util.Arrays.copyOf(nbr, o), java.util.Arrays.copyOf(wgt, o), self)
  }
}
