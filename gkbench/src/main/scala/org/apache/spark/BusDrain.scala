package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event.
  * `SparkContext.listenerBus` is package-private, hence this package.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
