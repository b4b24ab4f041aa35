#!/usr/bin/env python3
"""Runs every workload untraced and traced and prints every metric with its unit.

    python3 perfbench/report.py                         # the benchmark's own settings
    python3 perfbench/report.py --sf 0.01 --seconds 1   # smoke check of the benchmark

Each run must exit 0, pass its checks, and emit exactly the metrics that
BENCHMARK.json names (end_to_end untraced, per_layer traced), with their
units; otherwise this script exits 1. It also prints the tracing overhead
(traced over untraced operation time) and the share of the operation time
that no layer span covers.
"""
import argparse
import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int, sf) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if sf is not None:
        cmd += ["--sf", str(sf)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--sf", type=float)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        res = {t: run(name, args.seed, seconds, t, args.sf) for t in (0, 1)}
        print(f"\n{name}: {w['why']}")
        for t, r in res.items():
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[t]:
                problems.append(f"{name} trace={t}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {sorted(expected[t])}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{name} trace={t}: correct={r['correct']} "
                                f"failed={r['failed']} of {r['attempted']}")
            print(f"  {'untraced' if t == 0 else 'traced'}: "
                  f"{r['failed']} of {r['attempted']} operations failed")
            for k, v in r["metrics"].items():
                print(f"    {k:24s} {v['value']:>16.6g} {v['unit']}")
        op, traced = res[0]["metrics"]["op_s"]["value"], res[1]["metrics"]["trace.op_s"]["value"]
        uncovered = res[1]["metrics"]["trace.uncovered_share"]["value"]
        print(f"  tracing overhead: {traced / op - 1:+.1%} of op_s ({op:.3f} s untraced, "
              f"{traced:.3f} s traced); no layer span covers {uncovered:.2%} of it")

    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
