package repro.gkbench

/** Minimal JSON writer for the benchmark's result line and files. Maps keep
  * their insertion order when they are `ListMap`s; non-finite doubles
  * become `null`.
  */
object Json {
  def render(v: Any): String = v match {
    case null                        => "null"
    case s: String                   => quote(s)
    case b: Boolean                  => b.toString
    case d: Double                   => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int                      => i.toString
    case l: Long                     => l.toString
    case m: scala.collection.Map[_, _] => m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case s: Iterable[_]              => s.map(render).mkString("[", ",", "]")
    case other                       => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'                  => b ++= "\\\""
      case '\\'                 => b ++= "\\\\"
      case '\n'                 => b ++= "\\n"
      case '\t'                 => b ++= "\\t"
      case c if c < ' '         => b ++= f"\\u${c.toInt}%04x"
      case c                    => b += c
    }
    b += '"'
    b.result()
  }
}
