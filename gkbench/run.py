#!/usr/bin/env python3
"""Run one GK-means benchmark workload.

    python3 gkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the program and the
benchmark from source with sbt (offline) and stores the runtime classpath in
gkbench/target/classpath.txt; later calls reuse it unless a source or build
file is newer. The run itself is one JVM on Spark local mode with the pinned
configuration below. Its last line of standard output is the JSON result;
the same metrics, with the run's configuration, go to gkbench/out/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
CLASSPATH = BENCH / "target" / "classpath.txt"
SCRATCH = BENCH / "out" / "tmp"

# Pinned driver heap; the program's build reads the same variable.
DRIVER_MEM = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def sources():
    for top in (ROOT / "src" / "main", BENCH / "src" / "main", ROOT / "project", BENCH / "project"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for f in filenames:
                yield pathlib.Path(dirpath) / f
    yield ROOT / "build.sbt"
    yield BENCH / "build.sbt"


def classpath():
    """The runtime classpath, building first if anything changed since."""
    if CLASSPATH.exists():
        stamp = CLASSPATH.stat().st_mtime
        if all(p.stat().st_mtime <= stamp for p in sources()):
            return CLASSPATH.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.repository.config="
                   + str(pathlib.Path.home() / ".sbt" / "repositories") + " -Dsbt.offline=true -Xmx2g")
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        timeout=BUILD_TIMEOUT_S, text=True)
    sys.stderr.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or "gkbench" not in lines[-1]:
        sys.exit(f"gkbench: build failed (sbt exit {out.returncode})")
    CLASSPATH.write_text(lines[-1] + "\n")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        sys.exit(f"gkbench: program sources not found under {ROOT}")
    cp = classpath()

    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_DRIVER_MEM"] = DRIVER_MEM
    env.pop("SPARK_LOCAL_DIRS", None)  # would override spark.local.dir
    cmd = [
        "java", f"-Xmx{DRIVER_MEM}",
        f"-Djava.io.tmpdir={SCRATCH}", f"-Dspark.local.dir={SCRATCH}",
        "-Dspark.driver.host=127.0.0.1",
        "-cp", cp, "repro.gkbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", str(BENCH / "out"),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"gkbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
