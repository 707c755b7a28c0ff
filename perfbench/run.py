#!/usr/bin/env python3
"""Benchmark of record for cmesolve.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the library from this checkout's sources
plus the cmebench harness) into .bench_build/perfbench, fixes the thread
settings of the workload, runs cmebench and prints its result object as the
last stdout line. --trace 0 reports the end-to-end metrics BENCHMARK.json
declares; --trace 1 the per-layer ones, and writes spans and metric tags to
.bench_build/trace/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "trace"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every CMESOLVE_* / OpenMP variable is dropped, so the library's trace,
# report and flight sinks stay off and its knobs at their defaults; the
# thread settings are then fixed per workload below.
SCRUBBED_PREFIXES = ("CMESOLVE_", "OMP_", "GOMP_")


# Fixed thread settings per workload, recorded with every result, each
# clamped to nproc so busy threads never exceed it (serve clients block on
# their futures). The pool and the OpenMP SpMV run single-threaded: on a
# shared 4-vCPU host the barrier of every parallel sweep waits for the
# slowest, most-descheduled vCPU, which spread 4-thread solve times over
# 2.6-9.6 s for one input. sweep keeps the library default of 4 threads.
THREADS = {
    "landscape": {"CMESOLVE_THREADS": 1, "OMP_NUM_THREADS": 1},
    "transient": {"CMESOLVE_THREADS": 1, "OMP_NUM_THREADS": 1},
    "serve": {"CMESOLVE_THREADS": 1, "OMP_NUM_THREADS": 1,
              "CMESOLVE_SERVE_WORKERS": 2},
    "sweep": {"CMESOLVE_THREADS": 4, "OMP_NUM_THREADS": 4},
}


def thread_env(workload):
    nproc = os.cpu_count() or 1
    return {k: str(min(v, nproc)) for k, v in THREADS.get(workload, {}).items()}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no cmesolve sources under {ROOT}; nothing to build", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cmebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]], \
        [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIXES)}
    env.update(thread_env(args.workload))
    cmd = [str(BUILD / "cmebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(TRACE_DIR)]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"cmebench exited with {r.returncode}", 5)
    result = json.loads(lines[-1])

    names, workloads = declared_metrics(args.trace)
    if args.workload in workloads:
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail(f"cmebench did not report {missing}", 6)
        result["metrics"] = {n: result["metrics"][n] for n in names}
    for line in lines[:-1]:
        print(line)
    print(f"# thread settings {json.dumps(thread_env(args.workload))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
