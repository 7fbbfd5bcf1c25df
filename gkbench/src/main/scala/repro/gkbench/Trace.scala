package repro.gkbench

import scala.collection.mutable

/** A timed call into one layer; `parent` is -1 for a root span. */
final case class Span(id: Int, name: String, parent: Int, startMs: Double, endMs: Double) {
  def seconds: Double = (endMs - startMs) / 1000.0
}

/** In-memory span recorder. Times are wall-clock milliseconds (the clock
  * Spark stamps its job events with), interpolated from `System.nanoTime`
  * so spans keep sub-millisecond resolution.
  */
final class Trace {
  private val originNs = System.nanoTime()
  private val originMs = System.currentTimeMillis().toDouble
  private val done = mutable.ArrayBuffer[Span]()
  private var open = List.empty[Int]
  private var nextId = 0

  def nowMs: Double = originMs + (System.nanoTime() - originNs) / 1e6

  def span[T](name: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val start = nowMs
    try body
    finally {
      done += Span(id, name, parent, start, nowMs)
      open = open.tail
    }
  }

  def spans: Vector[Span] = done.toVector.sortBy(_.id)
  def named(name: String): Vector[Span] = spans.filter(_.name == name)
}

object Trace {

  /** Length of the union of intervals, each clipped to [lo, hi]. */
  def covered(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }.filter(i => i._2 > i._1).sortBy(_._1)
    var total = 0.0
    var curA = Double.NaN
    var curB = Double.NaN
    clipped.foreach { case (a, b) =>
      if (curA.isNaN || a > curB) {
        if (!curA.isNaN) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (!curA.isNaN) total += curB - curA
    total
  }

  /** Seconds of `s` not covered by any of the given intervals. */
  def uncovered(s: Span, intervals: Seq[(Double, Double)]): Double =
    (s.endMs - s.startMs - covered(intervals, s.startMs, s.endMs)) / 1000.0

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
