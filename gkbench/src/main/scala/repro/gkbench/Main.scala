package repro.gkbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.eval.Metrics
import repro.knn.{BuildResult, GraphBuilder, Probe}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Prints one JSON object as the last line of standard output and writes the
  * same metrics, with the run configuration, to `<out>/BENCH_*.json`.
  */
object Main {

  /** Pinned run configuration: with these fixed, labels, E, recall and every
    * count depend on the seed alone.
    */
  val Threads: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  /** Input partitions: `spark.range`, and so the generators, split the data
    * into `spark.default.parallelism` parts.
    */
  val Partitions = 4
  val ShufflePartitions = 8
  /** Data set-ups per run; `setup_s` counts their median. */
  val SetupReps = 3

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String)

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, s"expected --flag value pairs, got ${args.mkString(" ")}")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val trace = get("--trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = get("--seconds").toInt
    require(seconds >= 1, s"--seconds must be positive, got $seconds")
    Opts(get("--workload"), get("--seed").toLong, seconds, trace == "1", m.getOrElse("--out", "gkbench/out"))
  }

  def session(): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("gkbench")
      .config("spark.default.parallelism", Partitions.toLong)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      // A fixed physical plan: adaptive execution would re-plan shuffles
      // from run-time sizes and change task and job counts.
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime.toDouble
    val code =
      try {
        val opts = parse(args)
        val w = Workloads.byName(opts.workload).getOrElse(
          throw new IllegalArgumentException(s"unknown workload ${opts.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
        val spark = session()
        try {
          val result = new Bench(spark, w, opts, jvmStartMs).run()
          println(Json.render(result))
          0
        } finally spark.stop()
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    System.exit(code)
  }
}

/** Outputs of one clustering, as the untraced and traced paths both produce them. */
final case class FitOut(
    labels: Array[Int],
    cnt: Array[Long],
    distortionByIter: Vector[Double],
    distEvals: Long,
    moves: Long,
    initS: Double,
    iterS: Double,
) {
  def epochsRun: Int = distortionByIter.length - 1
  def finalDistortion: Double = distortionByIter.last
}

/** The neighbour structure a fit searches, and what it cost: GK-means' Alg. 3
  * graph, or for the full scan the exact top-1 neighbours of the probes.
  * `recall` is the top-1 recall the program reports for it.
  */
final case class Neighbours(build: Option[BuildResult], exactIds: Array[Long], seconds: Double, recall: Double)

/** One benchmark run of one workload. */
final class Bench(spark: SparkSession, w: Workload, opts: Main.Opts, jvmStartMs: Double) {
  import Main._

  private val sc = spark.sparkContext
  private val seed = opts.seed
  /** Per-job records; registered only when tracing, so timed runs measure
    * with tracing off.
    */
  private val log = new JobLog
  if (opts.trace) sc.addSparkListener(log)
  private val clock = new Trace

  private var checksRun = 0
  private val checkFailures = mutable.ArrayBuffer[String]()

  private def check(name: String)(outcome: => Option[String]): Unit = {
    checksRun += 1
    outcome.foreach(why => checkFailures += s"$name: $why")
  }

  private def secondsOf[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  // ---------------------------------------------------------------- set-up

  private var points: Dataset[Point] = _
  private val genS = (0 until SetupReps).map { _ =>
    if (points != null) points.unpersist(blocking = true)
    val (p, s) = secondsOf(Points.cached(w.data(spark, seed)))
    points = p
    s
  }

  /** Vectors by id, collected once for the checkers. */
  private val vecs: Array[Array[Float]] = {
    val out = new Array[Array[Float]](w.n)
    points.collect().foreach(p => out(p.id.toInt) = p.vec)
    require(!out.contains(null), s"generated ids are not dense in [0, ${w.n})")
    out
  }

  private val (probe, probeS) = secondsOf(Probe.sample(points, w.n, w.probes, seed ^ 0x5EEDL))
  private val probeIds = probe.probeIds.map(_.toInt)
  private val (trueIds, trueDists) = Checks.bruteTop1(vecs, probeIds)
  check("probe_truth")(agreesWithTruth(probe.trueIds))

  private val (_, warmupS) = secondsOf(cluster(neighbours(math.min(w.tau, 1)), w.epochs))
  private val setupS = (clock.nowMs - jvmStartMs) / 1000.0 - genS.sum + Trace.median(genS)

  private def isTrueTop1(q: Int, id: Long): Boolean =
    id == trueIds(q) || Checks.close(Checks.sqDist(vecs(probeIds(q)), vecs(id.toInt)), trueDists(q), 1e-9)

  /** Each probe's answer is a true nearest neighbour (same id or distance). */
  private def agreesWithTruth(ids: Array[Long]): Option[String] =
    probeIds.indices.find(q => !isTrueTop1(q, ids(q)))
      .map(q => s"probe ${probeIds(q)}: program says ${ids(q)}, exact scan says ${trueIds(q)}")

  // ------------------------------------------------------------------ fits

  /** GK-means: the Alg. 3 graph through `GraphBuilder.build`. The full scan
    * builds no graph; the exact top-1 scan over the probes
    * (`Metrics.bruteTop1`) stands in for it, as the neighbour search a full
    * scan implies.
    */
  private def neighbours(tau: Int): Neighbours = w.method match {
    case GkMeans =>
      val (b, s) = secondsOf(GraphBuilder.build(points, w.n, w.d, w.kappa, w.xi, tau, seed, Some(probe)))
      Neighbours(Some(b), Array.empty, s, b.roundRecalls.last)
    case BoostKMeans =>
      val ((exact, _), s) = secondsOf(Metrics.bruteTop1(points, probe.probeIds))
      Neighbours(None, exact, s, probeIds.indices.count(q => isTrueTop1(q, exact(q))).toDouble / probeIds.length)
  }

  /** One clustering through the program's public entry point. */
  private def cluster(nb: Neighbours, epochs: Int): FitOut = {
    val f = nb.build match {
      case Some(b) => Clustering.gkMeans(points, w.n, w.k, w.d, b.graph.ids, w.kappa, epochs, seed)
      case None    => Clustering.boost(points, w.n, w.k, w.d, epochs, seed)
    }
    FitOut(f.labels, f.state.cnt, f.distortionByIter, f.distEvals, f.moves, f.initMs / 1000.0, f.iterMs / 1000.0)
  }

  /** Checks the neighbour structure against the benchmark's own computations. */
  private def checkNeighbours(nb: Neighbours): Unit = nb.build match {
    case Some(b) =>
      check("graph_rows")(Checks.graphRows(vecs, b.graph.ids, b.graph.dists, 1e-6))
      check("recall") {
        val own = Checks.recallTop1(vecs, b.graph.ids, probeIds, trueIds, trueDists)
        if (own == nb.recall) None else Some(s"own recall $own, program ${nb.recall}")
      }
      check("recall_rounds")(Checks.nonDecreasing(b.roundRecalls))
    case None =>
      check("exact_top1")(agreesWithTruth(nb.exactIds))
  }

  /** Checks one clustering against the benchmark's own computations. */
  private def checkFit(f: FitOut, first: Option[FitOut]): Unit = {
    check("labels_valid")(Checks.labelsValid(f.labels, w.n, w.k))
    check("sizes")(Checks.sizesMatch(f.labels, w.k, f.cnt))
    check("distortion") {
      val e = Checks.distortion(vecs, f.labels, w.k)
      if (Checks.close(e, f.finalDistortion, 1e-6)) None else Some(s"direct E $e, program E ${f.finalDistortion}")
    }
    check("descent") {
      if (f.finalDistortion <= f.distortionByIter.head * (1 + 1e-12)) None
      else Some(s"final E ${f.finalDistortion} above E after init ${f.distortionByIter.head}")
    }
    w.method match {
      case GkMeans =>
        check("evals_bound") {
          val bound = w.n.toLong * w.kappa * f.epochsRun
          if (f.distEvals <= bound) None else Some(s"${f.distEvals} evaluations > n*kappa*epochs = $bound")
        }
      case BoostKMeans =>
        check("evals_exact") {
          val want = w.n.toLong * (w.k - 1) * (f.epochsRun + 1)
          if (f.distEvals == want) None else Some(s"${f.distEvals} evaluations, n*(k-1)*(epochs+1) = $want")
        }
    }
    first.foreach { f0 =>
      check("repeat")(if (f0.labels.sameElements(f.labels)) None else Some("same seed gave different labels"))
    }
  }

  // ------------------------------------------------------------------- run

  def run(): ListMap[String, Any] = if (opts.trace) runTraced() else runTimed()

  /** A neighbour structure, then clusterings on it until `--seconds` have
    * passed. The Alg. 3 graph is built once per run; the full scan's exact
    * probe scan is cheap, so it is repeated before every clustering. Times
    * are medians, except total: the wall clock from the start of the first
    * structure to the end of the first clustering.
    */
  private def runTimed(): ListMap[String, Any] = {
    val t0 = System.nanoTime()
    val nbs = mutable.ArrayBuffer(neighbours(w.tau))
    val fits = mutable.ArrayBuffer[FitOut]()
    var totalS = Double.NaN
    var failed = 0
    var round = 0
    do {
      try {
        if (round > 0 && w.method == BoostKMeans) nbs += neighbours(w.tau)
        round += 1
        val f = cluster(nbs.last, w.epochs)
        if (fits.isEmpty) totalS = (System.nanoTime() - t0) / 1e9
        fits += f
      } catch {
        case e: Exception =>
          failed += 1
          System.err.println(s"[gkbench] clustering failed: $e")
      }
    } while ((System.nanoTime() - t0) / 1e9 < opts.seconds)
    require(fits.nonEmpty, "every clustering failed")
    nbs.foreach(checkNeighbours)
    fits.foreach(f => checkFit(f, fits.headOption.filter(_ ne f)))
    def med(g: FitOut => Double) = Trace.median(fits.map(g).toSeq)
    val metrics = ListMap[String, (Double, String)](
      "setup_s" -> (setupS, "s"),
      "build_s" -> (Trace.median(nbs.map(_.seconds).toSeq), "s"),
      "init_s" -> (med(_.initS), "s"),
      "iter_s" -> (med(_.iterS), "s"),
      "total_s" -> (totalS, "s"),
      "distortion" -> (med(_.finalDistortion), "sqdist"),
      "recall" -> (Trace.median(nbs.map(_.recall).toSeq), "ratio"),
    )
    finish(metrics, nbs.size + fits.size + failed, failed, ListMap(
      "build_s" -> nbs.map(_.seconds),
      "fits" -> fits.map(f => ListMap("init_s" -> f.initS, "iter_s" -> f.iterS,
        "distortion" -> f.finalDistortion, "epochs" -> f.epochsRun, "dist_evals" -> f.distEvals, "moves" -> f.moves)),
      "setup" -> ListMap("gen_s" -> genS, "probe_s" -> probeS, "warmup_s" -> warmupS),
    ))
  }

  private def finish(metrics: ListMap[String, (Double, String)], attempted: Int, failed: Int,
                     extra: ListMap[String, Any]): ListMap[String, Any] = {
    val rendered = metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) }
    val result = ListMap[String, Any](
      "correct" -> checkFailures.isEmpty, "attempted" -> attempted, "failed" -> failed, "metrics" -> rendered)
    val file = ListMap[String, Any](
      "workload" -> w.name, "seed" -> seed, "seconds" -> opts.seconds, "trace" -> opts.trace,
      "config" -> ListMap((w.config ++ Seq(
        "cores" -> Runtime.getRuntime.availableProcessors, "master" -> sc.master,
        "input_partitions" -> points.rdd.getNumPartitions, "shuffle_partitions" -> ShufflePartitions,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20))): _*),
      "checks" -> ListMap("attempted" -> checksRun, "failed" -> checkFailures.size, "failures" -> checkFailures),
    ) ++ result ++ extra
    write(s"BENCH_${w.name}_seed${seed}_trace${if (opts.trace) 1 else 0}.json", Json.render(file))
    if (checkFailures.nonEmpty) System.err.println(s"[gkbench] failed checks:\n  ${checkFailures.mkString("\n  ")}")
    result
  }

  private def write(name: String, text: String): Unit = {
    val dir = Paths.get(opts.out)
    Files.createDirectories(dir)
    Files.write(dir.resolve(name), text.getBytes(StandardCharsets.UTF_8))
  }

  // ---------------------------------------------------------------- traced

  /** The run replayed with spans: `GraphBuilder.build` then the steps of
    * `Clustering.gkMeans`, or the exact scan then the steps of
    * `Clustering.boost`, with the same arguments and seeds as untraced.
    */
  private def tracedFit(tr: Trace): (Neighbours, FitOut) = tr.span("total") {
    w.method match {
      case GkMeans =>
        val b = tr.span("graph.build")(GraphBuilder.build(points, w.n, w.d, w.kappa, w.xi, w.tau, seed, Some(probe)))
        (Neighbours(Some(b), Array.empty, 0, b.roundRecalls.last), Replay.gkMeans(tr, points, w, b.graph.ids, seed))
      case BoostKMeans =>
        val (exact, _) = tr.span("metrics.exact_top1")(Metrics.bruteTop1(points, probe.probeIds))
        (Neighbours(None, exact, 0, Double.NaN), Replay.boost(tr, points, w, seed))
    }
  }

  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1000.0

  /** One untraced neighbour structure and clustering (checked), then the
    * same run replayed with spans and the listener's per-job records.
    */
  private def runTraced(): ListMap[String, Any] = {
    val (plainNb, plainNbS) = secondsOf(neighbours(w.tau))
    val (plain, plainFitS) = secondsOf(cluster(plainNb, w.epochs))
    checkNeighbours(plainNb)
    checkFit(plain, None)

    val tr = new Trace
    val (jobs0, bcast0) = log.snapshot(sc)
    val gc0 = gcSeconds
    val (tracedNb, traced) = tracedFit(tr)
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    val gcS = gcSeconds - gc0
    val (jobsAll, bcast1) = log.snapshot(sc)
    val jobs = jobsAll.drop(jobs0.length)
    check("traced_labels")(if (traced.labels.sameElements(plain.labels)) None else Some("traced replay changed the labels"))
    check("traced_evals")(if (traced.distEvals == plain.distEvals) None else Some(s"${traced.distEvals} vs ${plain.distEvals}"))

    val layer = jobs.groupBy(_.layer).withDefaultValue(Vector.empty)
    def iv(js: Seq[JobRec]) = js.map(j => (j.startMs.toDouble, j.endMs.toDouble))
    def taskS(js: Seq[JobRec]) = js.map(_.runMs).sum / 1000.0
    def gc(js: Seq[JobRec]) = js.map(_.gcMs).sum / 1000.0
    def mb(bytes: Long) = bytes / 1e6
    def shuffleMb(js: Seq[JobRec]) = mb(js.map(_.shuffleWriteBytes).sum)
    def resultMb(js: Seq[JobRec]) = mb(js.map(_.resultBytes).sum)
    def spanS(name: String) = tr.named(name).headOption.map(_.seconds).getOrElse(0.0)
    def driverS(name: String) = tr.named(name).headOption.map(s => Trace.uncovered(s, iv(jobs))).getOrElse(0.0)
    def inside(js: Seq[JobRec], ss: Seq[Span]) = js.filter(j => ss.exists(s => j.startMs >= s.startMs && j.endMs <= s.endMs))

    val total = tr.named("total").head
    val fitSpan = tr.spans.find(_.name.startsWith("fit.")).get
    val children = tr.spans.filter(_.parent == fitSpan.id)
    val epochSpans = tr.named("engine.epoch")
    val epochJobs = inside(layer("engine"), epochSpans)
    val engineEpochs = epochSpans.length
    val rounds = tr.named("graph.build").headOption.map { b =>
      val ends = inside(layer("graph"), Seq(b)).map(_.endMs.toDouble).sorted
      (b.startMs +: ends).sliding(2).collect { case Seq(a, e) => (e - a) / 1000.0 }.toVector
    }.getOrElse(Vector.empty)

    val m = ListMap.newBuilder[String, (Double, String)]
    m += "points.gen_s" -> (Trace.median(genS), "s")
    m += "metrics.probe_s" -> (probeS, "s")
    m += "jvm.warmup_s" -> (warmupS, "s")
    m += "graph.build_s" -> (spanS("graph.build"), "s")
    m += "graph.round_s" -> (if (rounds.isEmpty) 0.0 else Trace.median(rounds), "s")
    m += "graph.driver_s" -> (driverS("graph.build"), "s")
    m += "graph.jobs" -> (layer("graph").length.toDouble, "count")
    m += "graph.task_s" -> (taskS(layer("graph")), "s")
    m += "graph.gc_s" -> (gc(layer("graph")), "s")
    m += "graph.shuffle_mb" -> (shuffleMb(layer("graph")), "MB")
    m += "graph.result_mb" -> (resultMb(layer("graph")), "MB")
    m += "graph.recall_r1" -> (tracedNb.build.map(_.roundRecalls.head).getOrElse(0.0), "ratio")
    m += "tree.cluster_s" -> (spanS("tree.cluster"), "s")
    m += "tree.driver_s" -> (driverS("tree.cluster"), "s")
    m += "tree.jobs" -> (layer("tree").length.toDouble, "count")
    m += "tree.task_s" -> (taskS(layer("tree")), "s")
    m += "tree.gc_s" -> (gc(layer("tree")), "s")
    m += "tree.shuffle_mb" -> (shuffleMb(layer("tree")), "MB")
    m += "tree.result_mb" -> (resultMb(layer("tree")), "MB")
    m += "state.from_labels_s" -> (spanS("state.from_labels"), "s")
    m += "state.jobs" -> (layer("state").length.toDouble, "count")
    m += "state.task_s" -> (taskS(layer("state")), "s")
    m += "state.result_mb" -> (resultMb(layer("state")), "MB")
    m += "engine.epoch_s" -> (Trace.median(epochSpans.map(_.seconds)), "s")
    m += "engine.epoch_max_s" -> (epochSpans.map(_.seconds).max, "s")
    m += "engine.epochs" -> (engineEpochs.toDouble, "count")
    m += "engine.jobs" -> (layer("engine").length.toDouble, "count")
    m += "engine.task_s" -> (taskS(layer("engine")), "s")
    m += "engine.gc_s" -> (gc(layer("engine")), "s")
    m += "engine.result_mb" -> (resultMb(layer("engine")), "MB")
    m += "engine.dist_evals" -> (traced.distEvals.toDouble, "count")
    m += "engine.evals_per_pt" -> (traced.distEvals.toDouble / (w.n.toDouble * engineEpochs), "count")
    m += "engine.moves" -> (traced.moves.toDouble, "count")
    m += "engine.evals_per_s" -> (traced.distEvals / epochSpans.map(_.seconds).sum, "1/s")
    m += "engine.gflops" -> (2.0 * w.d * traced.distEvals / taskS(epochJobs) / 1e9, "GFLOP/s")
    m += "fit.driver_s" -> (fitSpan.seconds - Trace.covered(children.map(s => (s.startMs, s.endMs)), fitSpan.startMs, fitSpan.endMs) / 1000.0, "s")
    m += "init.distortion" -> (traced.distortionByIter.head, "sqdist")
    m += "other.jobs" -> (layer("other").length.toDouble, "count")
    m += "other.task_s" -> (taskS(layer("other")), "s")
    m += "spark.jobs" -> (jobs.length.toDouble, "count")
    m += "spark.tasks" -> (jobs.map(_.tasks).sum.toDouble, "count")
    m += "bcast.mb" -> (mb(bcast1 - bcast0), "MB")
    m += "jvm.gc_s" -> (gcS, "s")
    m += "jvm.heap_after_gc_mb" -> (heapMb, "MB")

    val spans = tr.spans.map(s => ListMap("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs))
    val jobRows = jobs.map(j => ListMap("id" -> j.id, "layer" -> j.layer, "site" -> j.site, "start_ms" -> j.startMs,
      "end_ms" -> j.endMs, "tasks" -> j.tasks, "run_ms" -> j.runMs, "gc_ms" -> j.gcMs,
      "shuffle_write_bytes" -> j.shuffleWriteBytes, "result_bytes" -> j.resultBytes))
    write(s"TRACE_${w.name}_seed$seed.json", Json.render(ListMap("workload" -> w.name, "seed" -> seed,
      "spans" -> spans, "jobs" -> jobRows)))
    finish(m.result(), 2, 0, ListMap("untraced_total_s" -> (plainNbS + plainFitS), "traced_total_s" -> total.seconds))
  }
}
