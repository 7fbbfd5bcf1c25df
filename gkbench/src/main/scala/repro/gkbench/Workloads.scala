package repro.gkbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData

sealed trait Method
/** GK-means (Alg. 2) on its own Alg. 3 graph. */
case object GkMeans extends Method
/** Full-scan boost k-means, no graph. */
case object BoostKMeans extends Method

/** One benchmark workload: a generated data set and the fit run on it.
  * `kappa`, `xi` and `tau` only apply to GK-means.
  */
final case class Workload(
    name: String,
    generator: String,
    n: Int,
    d: Int,
    nCenters: Int,
    k: Int,
    method: Method,
    kappa: Int,
    xi: Int,
    tau: Int,
    epochs: Int,
    probes: Int,
) {
  def data(spark: SparkSession, seed: Long): DataFrame = generator match {
    case "vladLite" => SynthData.vladLite(spark, n, nCenters, seed)
    case "gistLite" => SynthData.gistLite(spark, n, nCenters, seed)
    case "siftLite" => SynthData.siftLite(spark, n, nCenters, seed)
  }

  def config: Seq[(String, Any)] = Seq(
    "generator" -> generator, "n" -> n, "d" -> d, "n_centers" -> nCenters, "k" -> k,
    "method" -> (if (method == GkMeans) "gk-means" else "boost-k-means"),
    "kappa" -> kappa, "xi" -> xi, "tau" -> tau, "epochs" -> epochs, "probes" -> probes,
  )
}

/** The workloads. Why each exists, and why they are this size, is in the
  * README next to them.
  */
object Workloads {
  val all: Seq[Workload] = Seq(
    // Paper Table 2 ratios: k = n/10, kappa = 20, xi = 50, tau = 10, 20 epochs.
    Workload("table2-vlad", "vladLite", n = 20000, d = 64, nCenters = 400, k = 2000, GkMeans,
      kappa = 20, xi = 50, tau = 10, epochs = 20, probes = 1000),
    // Same kappa, xi, tau; 7.5x the bytes and flops per point.
    Workload("gist-hd", "gistLite", n = 6000, d = 480, nCenters = 150, k = 600, GkMeans,
      kappa = 20, xi = 50, tau = 10, epochs = 20, probes = 1000),
    // Fig. 5's k = 1000 on SIFT: the full scan dominates. Runnable, but not
    // in BENCHMARK.json: its iteration time is bimodal across JVMs (README).
    Workload("bkm-sift", "siftLite", n = 20000, d = 128, nCenters = 200, k = 1000, BoostKMeans,
      kappa = 0, xi = 0, tau = 0, epochs = 5, probes = 1000),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
