package repro.perfbench

import scala.collection.mutable

/** One timed interval: a call into a layer (`parent` is the operation that
  * made it) or an operation itself (`parent` is "run").
  */
final case class Span(name: String, parent: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder, wrapped around calls into the program's public
  * functions from outside. Disabled, `apply` only runs its body, so untraced
  * runs measure the program alone. Spans are written out when the run ends.
  */
final class Trace(val enabled: Boolean) {
  private val origin = System.nanoTime()
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  /** Counts recorded at layer boundaries, per operation: (op, name) -> value. */
  val counts: mutable.LinkedHashMap[(String, String), Double] = mutable.LinkedHashMap.empty
  /** Operation that new layer spans belong to. */
  var op: String = "setup"

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val start = System.nanoTime()
      val out = body
      spans += Span(name, op, start - origin, System.nanoTime() - origin)
      out
    }

  def count(name: String, value: Double): Unit =
    if (enabled) counts((op, name)) = value

  /** Attributes spans and counts made by `body` to operation `id`. */
  def under[A](id: String)(body: => A): A = {
    val prev = op
    op = id
    try body
    finally op = prev
  }

  /** Runs one operation under its own id; returns its wall time in seconds. */
  def operation(id: String)(body: => Unit): Double = {
    val start = System.nanoTime()
    under(id)(body)
    val end = System.nanoTime()
    if (enabled) spans += Span(id, "run", start - origin, end - origin)
    (end - start) / 1e9
  }

  /** Layer span durations (s) under the given operations, per call. */
  def calls(layer: String, ops: Set[String]): Seq[Double] =
    spans.iterator.filter(s => s.name == layer && ops(s.parent)).map(_.seconds).toSeq

  /** Per operation, the sum of a layer's span durations (s). */
  def perOp(layer: String, ops: Seq[String]): Seq[Double] =
    ops.map(o => spans.iterator.filter(s => s.name == layer && s.parent == o).map(_.seconds).sum)

  /** Per operation, the share of its wall time that no layer span covers.
    * Layer spans of one operation are sequential, so their sum is the
    * covered time.
    */
  def uncoveredShare(ops: Seq[String]): Seq[Double] = ops.flatMap { o =>
    spans.find(s => s.name == o && s.parent == "run").map { opSpan =>
      val covered = spans.iterator.filter(_.parent == o).map(_.seconds).sum
      (opSpan.seconds - covered) / opSpan.seconds
    }
  }

  def countsOf(name: String, ops: Seq[String]): Seq[Double] =
    ops.flatMap(o => counts.get((o, name)))

  def spansJson: String =
    spans.iterator.map { s =>
      s"""{"name": ${Json.str(s.name)}, "parent": ${Json.str(s.parent)}, """ +
        s""""start_ms": ${Json.num(s.startNs / 1e6)}, "end_ms": ${Json.num(s.endNs / 1e6)}}"""
    }.mkString("[\n  ", ",\n  ", "\n]\n")
}

/** Minimal JSON writing for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not finite")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
