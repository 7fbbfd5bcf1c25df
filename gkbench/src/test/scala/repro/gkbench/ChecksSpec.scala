package repro.gkbench

import org.scalatest.funsuite.AnyFunSuite

/** The checkers on inputs whose answers are known by hand, and on the same
  * inputs with one value corrupted, which each checker must reject.
  */
class ChecksSpec extends AnyFunSuite {

  // Two separated blobs of two points each; the blob means are (0, 0.5)
  // and (10, 0.5), so every point is 0.5 from its mean: E = 0.25.
  private val blobs = Array(Array(0f, 0f), Array(0f, 1f), Array(10f, 0f), Array(10f, 1f))
  private val blobLabels = Array(0, 0, 1, 1)

  // Points on a line at 0, 1, 3 and 6.
  private val line = Array(Array(0f), Array(1f), Array(3f), Array(6f))
  // The exact 2-NN graph of `line`, with squared distances.
  private def lineGraph = (
    Array(Array(1, 2), Array(0, 2), Array(1, 3), Array(2, 1)),
    Array(Array(1.0, 9.0), Array(1.0, 4.0), Array(4.0, 9.0), Array(9.0, 25.0)),
  )

  test("distortion of two blobs is 0.25") {
    assert(Checks.distortion(blobs, blobLabels, 2) == 0.25)
  }

  test("distortion rejects one changed label") {
    val bad = Array(0, 1, 1, 1)
    // Cluster 1 becomes {(0,1), (10,0), (10,1)} with mean (20/3, 2/3).
    val e = Checks.distortion(blobs, bad, 2)
    assert(Checks.close(e, (0.0 + (400.0 / 9 + 1.0 / 9) + (100.0 / 9 + 4.0 / 9) + (100.0 / 9 + 1.0 / 9)) / 4, 1e-12))
    assert(!Checks.close(e, 0.25, 1e-6))
  }

  test("cluster sizes come from the label histogram") {
    assert(Checks.sizes(blobLabels, 2).toSeq == Seq(2L, 2L))
    assert(Checks.sizesMatch(blobLabels, 2, Array(2L, 2L)).isEmpty)
    assert(Checks.sizesMatch(Array(0, 1, 1, 1), 2, Array(2L, 2L)).nonEmpty)
  }

  test("labels must cover every point and lie in [0, k)") {
    assert(Checks.labelsValid(blobLabels, 4, 2).isEmpty)
    assert(Checks.labelsValid(Array(0, 0, 1, 2), 4, 2).nonEmpty)
    assert(Checks.labelsValid(Array(0, 0, -1, 1), 4, 2).nonEmpty)
    assert(Checks.labelsValid(Array(0, 0, 1), 4, 2).nonEmpty)
  }

  test("exact top-1 on a line") {
    val (ids, dists) = Checks.bruteTop1(line, Array(0, 1, 2, 3))
    assert(ids.toSeq == Seq(1, 0, 1, 2))
    assert(dists.toSeq == Seq(1.0, 1.0, 4.0, 9.0))
  }

  test("exact top-1 breaks a tie toward the smaller id") {
    val (ids, _) = Checks.bruteTop1(Array(Array(0f), Array(-1f), Array(1f)), Array(0))
    assert(ids.toSeq == Seq(1))
  }

  test("the exact graph of a line passes the row check") {
    val (ids, dists) = lineGraph
    assert(Checks.graphRows(line, ids, dists, 1e-9).isEmpty)
  }

  test("unmeasured slots may trail a row") {
    val (ids, dists) = lineGraph
    dists(3)(1) = Double.MaxValue
    assert(Checks.graphRows(line, ids, dists, 1e-9).isEmpty)
  }

  test("the row check rejects one altered distance") {
    val (ids, dists) = lineGraph
    dists(2)(1) = 9.5
    assert(Checks.graphRows(line, ids, dists, 1e-9).exists(_.contains("recomputed")))
  }

  test("the row check rejects a self id, a repeated id and an unsorted row") {
    val (ids, dists) = lineGraph
    ids(0)(0) = 0
    assert(Checks.graphRows(line, ids, dists, 1e-9).exists(_.contains("itself")))
    val (ids2, dists2) = lineGraph
    ids2(1)(1) = 0
    assert(Checks.graphRows(line, ids2, dists2, 1e-9).exists(_.contains("repeats")))
    val (ids3, dists3) = lineGraph
    ids3(2) = Array(3, 1); dists3(2) = Array(9.0, 4.0)
    assert(Checks.graphRows(line, ids3, dists3, 1e-9).exists(_.contains("sorted")))
  }

  test("recall of the exact graph is 1, and drops with a wrong first neighbour") {
    val (ids, _) = lineGraph
    val probes = Array(0, 1, 2, 3)
    val (ti, td) = Checks.bruteTop1(line, probes)
    assert(Checks.recallTop1(line, ids, probes, ti, td) == 1.0)
    ids(2) = Array(3, 1)
    assert(Checks.recallTop1(line, ids, probes, ti, td) == 0.75)
  }

  test("recall counts a neighbour at the true distance as a hit") {
    val pts = Array(Array(0f), Array(-1f), Array(1f))
    val (ti, td) = Checks.bruteTop1(pts, Array(0))
    assert(Checks.recallTop1(pts, Array(Array(2, 1), Array(0, 2), Array(0, 1)), Array(0), ti, td) == 1.0)
  }

  test("per-round recall must not decrease") {
    assert(Checks.nonDecreasing(Seq(0.1, 0.4, 0.4, 0.9)).isEmpty)
    assert(Checks.nonDecreasing(Seq(0.1, 0.4, 0.3)).nonEmpty)
  }

  test("jobs are attributed to the first layer module on their call site") {
    val epoch = """org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
                  |repro.core.Engine$.epoch(Engine.scala:87)
                  |repro.core.Clustering$.iterate(Clustering.scala:137)
                  |repro.gkbench.Bench.run(Main.scala:10)""".stripMargin
    assert(Layers.of(epoch) == "engine")
    val seedPick = """org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
                     |repro.core.Points$.fetchVecs(Points.scala:45)
                     |repro.core.TwoMeansTree$.$anonfun$cluster$1(TwoMeansTree.scala:50)""".stripMargin
    assert(Layers.of(seedPick) == "tree")
    val probe = """org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
                  |repro.eval.Metrics$.bruteTop1(Metrics.scala:70)
                  |repro.knn.Probe$.sample(GraphBuilder.scala:13)
                  |repro.gkbench.Bench.<init>(Main.scala:148)""".stripMargin
    assert(Layers.of(probe) == "setup")
    assert(Layers.of("repro.knn.NNDescent$.build(NNDescent.scala:40)") == "other")
    assert(Layers.of("collect at Somewhere.scala:1") == "other")
  }

  test("covered time is the union of clipped intervals") {
    assert(Trace.covered(Seq((0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 20.0)), 0.0, 10.0) == 5.0)
    assert(Trace.covered(Seq.empty, 0.0, 10.0) == 0.0)
  }
}
