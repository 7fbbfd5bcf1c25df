package repro.gkbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One Spark job as the listener saw it, attributed to a layer. */
final class JobRec(val id: Int, val layer: String, val site: String, val startMs: Long) {
  var endMs: Long = startMs
  var tasks: Int = 0
  var runMs: Long = 0L
  var gcMs: Long = 0L
  var shuffleWriteBytes: Long = 0L
  var resultBytes: Long = 0L
}

/** Maps a job's call site to the layer (module) that launched it.
  *
  * Spark records the long call site of every job: the driver stack from the
  * action down to `main`. The first `repro` frame whose class is a layer
  * module decides. `Points`, `Metrics` and `Probe` are helpers called from
  * several layers, so their frames defer to the caller below them; the
  * benchmark's own frames and the data generator make the set-up layer,
  * except `Replay`, whose frames stand in for `Clustering`'s. A
  * job whose stack names no known module lands in `other`, so a moved call
  * site shows up there instead of silently shifting work between layers.
  */
object Layers {
  val byModule: Map[String, String] = Map(
    "repro.knn.GraphBuilder" -> "graph",
    "repro.knn.KnnGraph" -> "graph",
    "repro.core.TwoMeansTree" -> "tree",
    "repro.core.ClusterState" -> "state",
    "repro.core.Engine" -> "engine",
    "repro.core.Clustering" -> "fit",
    "repro.gkbench.Replay" -> "fit",
    "repro.SynthData" -> "setup",
  )
  val helpers: Set[String] = Set("repro.core.Points", "repro.eval.Metrics", "repro.knn.Probe")

  private val Frame = """^\s*(?:at\s+)?([\w.$]+)\.[\w$<>]+\(.*\)\s*$""".r

  /** Module of one stack line: its class up to the first `$`. */
  private def module(line: String): Option[String] = line match {
    case Frame(cls) => Some(cls.takeWhile(_ != '$'))
    case _          => None
  }

  def of(callSite: String): String =
    callSite.linesIterator.flatMap(module).filter(_.startsWith("repro.")).find(m => !helpers(m)) match {
      case Some(m) if byModule.contains(m)          => byModule(m)
      case Some(m) if m.startsWith("repro.gkbench.") => "setup"
      case Some(_)                                  => "other"
      case None                                     => "other"
    }
}

/** Listener that keeps per-job task totals and broadcast bytes in memory. */
final class JobLog extends SparkListener {
  private val jobs = mutable.ArrayBuffer[JobRec]()
  private val byStage = mutable.HashMap[Int, JobRec]()
  private var bcastBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val site = e.stageInfos.sortBy(_.stageId).lastOption.map(_.details).getOrElse("")
    val rec = new JobRec(e.jobId, Layers.of(site), site.linesIterator.take(2).mkString(" / "), e.time)
    jobs += rec
    e.stageIds.foreach(s => byStage(s) = rec)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.find(_.id == e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    byStage.get(e.stageId).filter(_ => m != null).foreach { r =>
      r.tasks += 1
      r.runMs += m.executorRunTime
      r.gcMs += m.jvmGCTime
      r.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      r.resultBytes += m.resultSize
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val b = e.blockUpdatedInfo
    if (b.blockId.isBroadcast && b.storageLevel.isValid) bcastBytes += b.memSize + b.diskSize
  }

  /** Jobs recorded so far and broadcast bytes stored so far, after every
    * event posted before this call has been delivered.
    */
  def snapshot(sc: SparkContext): (Vector[JobRec], Long) = {
    org.apache.spark.BusDrain(sc)
    synchronized((jobs.toVector, bcastBytes))
  }
}
