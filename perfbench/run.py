#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench driver from source (CMake, Release, into
.bench_build/perfbench under the checkout root), then runs one workload in
its own child process so that its peak RSS is its own, relays the child's
report, and ends with the child's one-line JSON result.

    python3 perfbench/run.py --workload ingpu_uniform --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
decomposition and reports the per-layer metrics, writing a Chrome trace to
.bench_build/perfbench/trace-<workload>-seed<n>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ingpu_uniform", "skew_ring_materialize", "session_mixed")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Simulated-block pool width: pinned, at most the host's CPU count.
MAX_POOL_THREADS = 4
CHILD_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(max(1, min(MAX_POOL_THREADS, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2

    threads = max(1, min(MAX_POOL_THREADS, os.cpu_count() or 1))
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--threads=%d" % threads]
    if args.trace:
        cmd.append("--trace_out=" + os.path.join(
            BUILD_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed)))
    # The library's process-wide pool (used by the CPU partitioner and the
    # co-processing strategy) takes its width from GJOIN_CPU_THREADS; pin it
    # to the same width as the simulated-block pool.
    env = dict(os.environ, GJOIN_CPU_THREADS=str(threads))
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 3

    # The child prints its JSON result last, also when a result failed
    # verification (then with "correct": false and a nonzero exit).
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    if child.returncode != 0:
        print("perfbench: %s exited with %d" % (args.workload,
                                               child.returncode),
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
