#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the program's sources (src/main/scala and jobs/) together with the
benchmark harness (perfbench/src) with the Scala compiler that ships in
Spark's jars, into perfbench/out/classes-<hash>/. The hash covers every
source file, so an unchanged checkout is compiled once.

    python3 perfbench/build.py      # prints the classes directory
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs", BENCH / "src"]
OUT = BENCH / "out"
BUILD_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(pathlib.Path(home) / "bin" / "java") if home else "java"


def spark_jars() -> pathlib.Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        raise BuildError("SPARK_HOME is not set; it must name a Spark distribution")
    jars = pathlib.Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Spark distribution with a Scala compiler at {jars}")
    return jars


def sources() -> list:
    files = []
    for d in SOURCE_DIRS:
        found = sorted(d.rglob("*.scala")) if d.is_dir() else []
        if not found:
            raise BuildError(f"no Scala sources under {d.relative_to(ROOT)}")
        files += found
    return files


def build() -> pathlib.Path:
    """Returns the directory of compiled classes, compiling if needed."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256()
    for f in files + sorted(jars.glob("scala-compiler-*.jar")):
        digest.update(str(f.relative_to(ROOT) if f.is_relative_to(ROOT) else f).encode())
        digest.update(f.read_bytes() if f.suffix == ".scala" else b"")
    classes = OUT / f"classes-{digest.hexdigest()[:16]}"
    if classes.is_dir():
        return classes
    shutil.rmtree(OUT, ignore_errors=True)
    staging = OUT / "staging"
    staging.mkdir(parents=True)
    proc = subprocess.run(
        [java(), "-cp", f"{jars}/*", "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
         "-d", str(staging)] + [str(f) for f in files],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    staging.rename(classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
