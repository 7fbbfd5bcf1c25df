package repro.gkbench

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics

/** `Clustering.gkMeans` and `Clustering.boost` replayed as their public
  * steps, with one span per call into a layer. Same arguments, same seeds,
  * same order of Spark jobs as the program's own code, so the replay yields
  * the same labels. The one job launched from this object's own frames, the
  * Σ‖x‖² pass, stands for `Clustering`'s and is put in the fit layer.
  */
object Replay {

  def gkMeans(tr: Trace, points: Dataset[Point], w: Workload, graph: Array[Array[Int]], seed: Long): FitOut =
    tr.span("fit.gkMeans") {
      val labels0 = tr.span("tree.cluster")(TwoMeansTree.cluster(points, w.n, w.k, w.d, seed))
      val state0 = tr.span("state.from_labels")(ClusterState.fromLabels(points, labels0, w.k, w.d))
      val bcG = points.sparkSession.sparkContext.broadcast(graph)
      try iterate(tr, points, w, labels0, state0, new GraphNbrGen(bcG, w.kappa), 0L)
      finally bcG.destroy()
    }

  def boost(tr: Trace, points: Dataset[Point], w: Workload, seed: Long): FitOut =
    tr.span("fit.boost") {
      val seedState = Clustering.randomSeedState(points, w.n, w.k, w.d, seed)
      val init = tr.span("engine.epoch")(
        Engine.epoch(points, new Array[Int](w.n), seedState, new AllClustersGen(w.k), Engine.NearestRule))
      iterate(tr, points, w, init.labels, init.state, new AllClustersGen(w.k), init.distEvals)
    }

  /** `Clustering.iterate` with the boost rule and distortion tracked. */
  private def iterate(tr: Trace, points: Dataset[Point], w: Workload, labels0: Array[Int], state0: ClusterState,
                      cand: CandidateGen, evals0: Long): FitOut = {
    val sumSq = Metrics.sumSqNorm(points)
    var labels = labels0
    var state = state0
    var evals = evals0
    var moves = 0L
    val dist = Vector.newBuilder[Double]
    dist += state.distortion(sumSq, w.n)
    var t = 0
    var converged = false
    while (t < w.epochs && !converged) {
      val r = tr.span("engine.epoch")(Engine.epoch(points, labels, state, cand, Engine.BoostRule))
      labels = r.labels
      state = r.state
      evals += r.distEvals
      moves += r.moved
      dist += state.distortion(sumSq, w.n)
      converged = r.moved == 0
      t += 1
    }
    FitOut(labels, state.cnt, dist.result(), evals, moves, 0, 0)
  }
}
