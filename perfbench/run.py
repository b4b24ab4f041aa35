#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload cell-k20-eta2 --seed 42 --seconds 15 --trace 0

Builds the program from source first (perfbench/build.py), then runs the
harness in one JVM with the Spark session of repro.jobs.JobUtil. The last
line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Results, spans (traced runs) and the JVM's log go to perfbench/results/.
The exit code is not 0, and no result is printed, if the build or the run
fails. Extra option: --sf overrides the ledger scale (the smoke check uses
0.01).
"""
import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing but results behind in the checkout
import build  # noqa: E402

RUN_TIMEOUT_S = 170
# Fixed heap and the throughput collector: under the default G1 a warm step
# or cell of this pipeline took about 25% longer.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sf", type=float)
    args = ap.parse_args()

    try:
        classes = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    results = build.BENCH / "results"
    tmp = build.OUT / "tmp"
    results.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    # Measure the jobs' own defaults (local[*], 64 shuffle partitions).
    env.pop("SPARK_MASTER", None)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    cmd = [build.java(), *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", f"{classes}{os.pathsep}{build.spark_jars()}/*", "repro.perfbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(results)]
    if args.sf is not None:
        cmd += ["--sf", str(args.sf)]

    log_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    started = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run exceeded {RUN_TIMEOUT_S} s; log: {log_path}", file=sys.stderr)
            return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        print(f"run failed (exit {proc.returncode}); log tail:\n{tail}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print(f"malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"wall: {time.monotonic() - started:.1f} s; log: {log_path.relative_to(build.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
