#!/usr/bin/env python3
"""Builds and runs the Colibri repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dp_scatter --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, prints the binary's
report plus an environment record, and ends with one JSON line:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
Exits 0 only when every correctness gate passed.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dp_scatter", "dp_hot_jumbo", "cp_churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Colibri sources (src/) not found next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "colibri_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "colibri_perfbench")


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/self/mounts)."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, best_type = mnt, parts[2]
    except OSError:
        pass
    return best_type


def environment(bdir, out_dir, seed):
    cpu_model, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1]
    except OSError:
        pass
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "aes_ni": bool(re.search(r"\baes\b", flags)),
        "compiler": version or compiler,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "wal_fs_type": fs_type(out_dir),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode)

    env = environment(bdir, out_dir, args.seed)
    for line in lines[:-1]:
        print(line)
    print("# env " + json.dumps(env, sort_keys=True))
    record = os.path.join(out_dir, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result.get("correct") is True else 1)


if __name__ == "__main__":
    main()
