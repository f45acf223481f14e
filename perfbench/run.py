#!/usr/bin/env python3
r"""Builds and runs the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_scan --seed 1 --seconds 30 \
        --trace 0

Workloads: serve_scan, serve_tpch, cold_libraries (see perfbench/NOTES.md).
--workload all runs the three in turn, each result line after a
"# <workload>" line. The first call configures and builds perfbench/ and the
libraries under src/ into .bench_build/; later calls rebuild only what
changed. The last line of stdout is the benchmark's JSON result; build output
goes to stderr.
--smoke runs a tiny, about one-second version that the benchmark's own test
(perfbench/test_smoke.py) uses to check the output format.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("serve_scan", "serve_tpch", "cold_libraries")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def golden_path(binary, workload, seed, smoke):
    """Where the simulated ns of every (library, query) of one seed are kept.

    They must repeat exactly across runs of one seed; the file is keyed by
    the binary so a rebuilt program starts a fresh comparison.
    """
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:12]
    return os.path.join(OUT_DIR, f"sim-{workload}-seed{seed}"
                        f"{'-smoke' if smoke else ''}-{build_id}.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        sys.exit(run_workload(binary, args, args.workload))
    worst = 0
    for workload in WORKLOADS:
        print(f"# {workload}", flush=True)
        worst = max(worst, run_workload(binary, args, workload))
    sys.exit(worst)


def run_workload(binary, args, workload):
    golden = golden_path(binary, workload, args.seed, args.smoke)
    # Relative paths keep the server's socket path short.
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.relpath(OUT_DIR, ROOT),
           "--golden", os.path.relpath(golden, ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
