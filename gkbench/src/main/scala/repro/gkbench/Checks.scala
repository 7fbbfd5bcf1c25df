package repro.gkbench

/** Output checkers that share no code with the program under test.
  *
  * Every computation here is plain Scala over driver-side arrays: the
  * vectors (indexed by point id), the labels and the graph rows the program
  * returned. Each checker returns `None` when the output passes and a short
  * reason when it does not.
  */
object Checks {

  /** Squared L2 distance, accumulated in double from the float inputs. */
  def sqDist(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) {
      val t = a(i).toDouble - b(i).toDouble
      s += t * t
      i += 1
    }
    s
  }

  /** Equal within a relative tolerance (plus a tiny absolute floor). */
  def close(a: Double, b: Double, rel: Double): Boolean =
    math.abs(a - b) <= rel * math.max(math.abs(a), math.abs(b)) + 1e-12

  /** Every one of the n points has a label in [0, k). */
  def labelsValid(labels: Array[Int], n: Int, k: Int): Option[String] =
    if (labels.length != n) Some(s"${labels.length} labels for $n points")
    else labels.indexWhere(l => l < 0 || l >= k) match {
      case -1 => None
      case i  => Some(s"label ${labels(i)} of point $i is outside [0, $k)")
    }

  /** Cluster sizes from a label histogram. */
  def sizes(labels: Array[Int], k: Int): Array[Long] = {
    val h = new Array[Long](k)
    labels.foreach(l => h(l) += 1)
    h
  }

  /** The program's cluster counts equal the label histogram. */
  def sizesMatch(labels: Array[Int], k: Int, cnt: Array[Long]): Option[String] = {
    val h = sizes(labels, k)
    if (cnt.length != k) Some(s"${cnt.length} counts for k=$k")
    else h.indices.find(r => h(r) != cnt(r)).map(r => s"cluster $r: histogram ${h(r)}, state ${cnt(r)}")
  }

  /** Average distortion (paper Eqn. 4): mean squared distance of each point
    * to the mean of its cluster, the means computed here from the labels.
    */
  def distortion(vecs: Array[Array[Float]], labels: Array[Int], k: Int): Double = {
    val d = vecs(0).length
    val sum = Array.ofDim[Double](k, d)
    val cnt = sizes(labels, k)
    var i = 0
    while (i < vecs.length) {
      val s = sum(labels(i)); val v = vecs(i)
      var j = 0
      while (j < d) { s(j) += v(j); j += 1 }
      i += 1
    }
    var r = 0
    while (r < k) {
      if (cnt(r) > 0) { var j = 0; while (j < d) { sum(r)(j) /= cnt(r); j += 1 } }
      r += 1
    }
    var e = 0.0
    i = 0
    while (i < vecs.length) {
      val c = sum(labels(i)); val v = vecs(i)
      var j = 0
      while (j < d) { val t = v(j) - c(j); e += t * t; j += 1 }
      i += 1
    }
    e / vecs.length
  }

  /** Every graph row holds distinct ids other than its own, sorted by
    * ascending distance, and every measured distance equals the squared
    * distance recomputed here. Entries still at `Double.MaxValue` are
    * unmeasured slots of the random initial graph; they may only trail.
    */
  def graphRows(vecs: Array[Array[Float]], ids: Array[Array[Int]], dists: Array[Array[Double]], rel: Double): Option[String] = {
    if (ids.length != vecs.length) return Some(s"${ids.length} rows for ${vecs.length} points")
    var i = 0
    while (i < ids.length) {
      val row = ids(i); val dd = dists(i)
      if (row.length != dd.length) return Some(s"row $i: ${row.length} ids, ${dd.length} distances")
      if (row.distinct.length != row.length) return Some(s"row $i repeats an id")
      var p = 0
      while (p < row.length) {
        val j = row(p)
        if (j == i) return Some(s"row $i lists itself")
        if (j < 0 || j >= vecs.length) return Some(s"row $i: id $j out of range")
        if (p > 0 && dd(p) < dd(p - 1)) return Some(s"row $i is not sorted at position $p")
        if (dd(p) != Double.MaxValue && !close(dd(p), sqDist(vecs(i), vecs(j)), rel))
          return Some(s"row $i: distance to $j is ${dd(p)}, recomputed ${sqDist(vecs(i), vecs(j))}")
        p += 1
      }
      i += 1
    }
    None
  }

  /** Exact top-1 neighbour (id, squared distance) of each probe by a full
    * scan; ties go to the smaller id. Probes are scanned in parallel.
    */
  def bruteTop1(vecs: Array[Array[Float]], probes: Array[Int]): (Array[Int], Array[Double]) = {
    val bi = new Array[Int](probes.length)
    val bd = new Array[Double](probes.length)
    java.util.stream.IntStream.range(0, probes.length).parallel().forEach { q =>
      val x = vecs(probes(q))
      var best = -1
      var bestD = Double.MaxValue
      var j = 0
      while (j < vecs.length) {
        if (j != probes(q)) {
          val dd = sqDist(x, vecs(j))
          if (dd < bestD) { bestD = dd; best = j }
        }
        j += 1
      }
      bi(q) = best; bd(q) = bestD
    }
    (bi, bd)
  }

  /** Share of probes whose first graph neighbour is a true nearest
    * neighbour: the true top-1 id, or a point at the same recomputed distance.
    */
  def recallTop1(vecs: Array[Array[Float]], graphIds: Array[Array[Int]], probes: Array[Int],
                 trueIds: Array[Int], trueDists: Array[Double]): Double = {
    var hit = 0
    var q = 0
    while (q < probes.length) {
      val row = graphIds(probes(q))
      if (row.nonEmpty && (row(0) == trueIds(q) || sqDist(vecs(probes(q)), vecs(row(0))) <= trueDists(q) * (1 + 1e-9)))
        hit += 1
      q += 1
    }
    hit.toDouble / probes.length
  }

  /** The sequence never decreases. */
  def nonDecreasing(xs: Seq[Double]): Option[String] =
    xs.indices.drop(1).find(i => xs(i) < xs(i - 1)).map(i => s"value ${xs(i)} at $i follows ${xs(i - 1)}")
}
