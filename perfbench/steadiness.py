#!/usr/bin/env python3
"""Repeated-run steadiness check for the repo benchmark.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workloads dp_scatter cp_churn --seeds 10

Runs perfbench/run.py once per seed (1..N) for each workload with the
run_seconds of BENCHMARK.json, then reports for every end-to-end metric
its median and the distance between the first and third quartile as a
share of the median, next to the metric's bound, and the run values.
Exits 1 if any spread exceeds its bound, or any run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for wl in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d FAILED (exit %d)\n%s" % (wl, seed, proc.returncode, proc.stderr))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, %g s each)" % (wl, len(next(iter(values.values()), [])), spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok"
            if spread > metric["bound"]:
                flag = "OVER"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "ok (> bound/3)"
            print("  %-18s median %12.4f %-7s spread %6.3f  bound %.2f  %-14s  runs %s"
                  % (metric["name"], med, metric["unit"], spread, metric["bound"], flag,
                     " ".join("%.4g" % x for x in v)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
