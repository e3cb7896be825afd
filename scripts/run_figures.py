#!/usr/bin/env python3
"""Run every paper-figure bench binary and collect its CSV rows.

Usage:
  scripts/run_figures.py [--build-dir BUILD] [--out-dir OUT]
                         [--only REGEX] [--divisor N] [--strict]
                         [--timings] [--trace-dir DIR]

Discovers bench binaries from bench/*.cc (fig*, abl_*) and runs the
same-named executables from --build-dir sequentially (the benches are
CPU-bound functional simulations; parallel runs just fight for cores and
garble timing-free output ordering). Per bench, stdout is saved to
OUT/<name>.txt, the figure,series,x,value rows to OUT/<name>.csv, and
everything to OUT/all_figures.csv.

--timings additionally writes OUT/timings.json: per-bench wall-clock
seconds, peak resident set size in bytes (peak_rss_bytes), minor page
faults (minor_faults), kernel CPU seconds (sys_seconds) and the divisor
each bench ran at, the measurement behind the README's "Full-scale
timings" table. Timings are always collected; the flag only controls
writing the JSON. Each bench runs under its own small wrapper process
that reports its child's rusage: RUSAGE_CHILDREN's maxrss is a running
maximum over every child a process has reaped, so reading it here would
report the largest bench so far, not this one.

--trace-dir DIR passes --trace_dir=DIR to every bench: session benches
dump Chrome-trace JSON timelines there (viewable at ui.perfetto.dev).
Tracing is charge-free — CSV rows are byte-identical with or without it.

Exit status: 1 if any bench exited non-zero (with --strict, benches
themselves exit non-zero when a shape check fails), else 0.
"""

import argparse
import csv
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs argv[2:] as its only child, writes that child's rusage to the file
# argv[1] as JSON (peak RSS in bytes: ru_maxrss is in KiB on Linux), and
# exits with the child's status (128 + signal when it was killed, as a
# shell reports).
RUSAGE_WRAPPER = """
import json, resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "w") as f:
    json.dump({"peak_rss_bytes": ru.ru_maxrss * 1024,
               "minor_faults": ru.ru_minflt,
               "sys_seconds": round(ru.ru_stime, 3)}, f)
sys.exit(rc if rc >= 0 else 128 - rc)
"""
RUSAGE_KEYS = ("peak_rss_bytes", "minor_faults", "sys_seconds")


def run_measured(cmd: list[str], timeout: int):
    """Runs cmd under RUSAGE_WRAPPER; returns (returncode, stdout, stderr,
    usage), usage mapping each of RUSAGE_KEYS to its value or None, with
    returncode None after a timeout."""
    fd, usage_path = tempfile.mkstemp(prefix="gjoin_rusage_")
    os.close(fd)
    # A new session, so a timeout kills the bench along with its wrapper.
    proc = subprocess.Popen([sys.executable, "-c", RUSAGE_WRAPPER, usage_path,
                             *cmd], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        returncode = None
    try:
        text = pathlib.Path(usage_path).read_text()
        usage = json.loads(text) if text else {}
    finally:
        os.unlink(usage_path)
    return returncode, out, err, {k: usage.get(k) for k in RUSAGE_KEYS}


def discover_benches(only: str) -> list[str]:
    names = sorted(
        src.stem
        for pattern in ("fig*.cc", "abl_*.cc")
        for src in (REPO_ROOT / "bench").glob(pattern)
    )
    if only:
        names = [n for n in names if re.search(only, n)]
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory with the bench binaries")
    parser.add_argument("--out-dir", default="out/figures",
                        help="where CSV/log outputs are written")
    parser.add_argument("--only", default="",
                        help="regex filter on bench names")
    parser.add_argument("--divisor", type=int, default=0,
                        help="override every bench's default divisor")
    parser.add_argument("--strict", action="store_true",
                        help="pass --strict: a failed shape check fails "
                             "the bench (and this script)")
    parser.add_argument("--timings", action="store_true",
                        help="write per-bench wall-clock seconds to "
                             "OUT/timings.json")
    parser.add_argument("--trace-dir", default="",
                        help="dump Chrome-trace JSON session timelines "
                             "into this directory")
    parser.add_argument("--timeout", type=int, default=3600,
                        help="per-bench timeout in seconds")
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace_dir:
        pathlib.Path(args.trace_dir).mkdir(parents=True, exist_ok=True)

    benches = discover_benches(args.only)
    if not benches:
        print("no benches matched", file=sys.stderr)
        return 1

    all_rows = []
    failures = []
    checks_failed = 0
    timings = {}
    for name in benches:
        binary = build_dir / name
        if not binary.exists():
            print(f"SKIP {name}: {binary} not built", file=sys.stderr)
            failures.append(name)
            continue
        cmd = [str(binary)]
        if args.divisor > 0:
            cmd.append(f"--divisor={args.divisor}")
        if args.strict:
            cmd.append("--strict")
        if args.trace_dir:
            cmd.append(f"--trace_dir={args.trace_dir}")
        print(f"RUN  {' '.join(cmd)}", flush=True)
        start = time.monotonic()
        returncode, stdout, stderr, usage = run_measured(cmd, args.timeout)
        if returncode is None:
            # Keep whatever the bench printed before hanging — that is
            # exactly the log one needs to debug it.
            (out_dir / f"{name}.txt").write_text(
                stdout + stderr + f"\nFAIL: timeout after {args.timeout}s\n")
            print(f"FAIL {name}: timeout after {args.timeout}s",
                  file=sys.stderr)
            failures.append(name)
            continue
        (out_dir / f"{name}.txt").write_text(stdout + stderr)
        wall_s = time.monotonic() - start

        rows = []
        divisor = None
        for line in stdout.splitlines():
            if line.startswith("#"):
                m = re.match(r"# divisor=(\d+)", line)
                if m:
                    divisor = int(m.group(1))
                continue
            if line.startswith("CHECK "):
                if line.rstrip().endswith(": FAIL"):
                    checks_failed += 1
                    print(f"  {line}", flush=True)
                continue
            parts = line.split(",")
            if len(parts) >= 4:
                rows.append(parts)
        with open(out_dir / f"{name}.csv", "w", newline="") as f:
            csv.writer(f).writerows(rows)
        all_rows.extend(rows)

        timings[name] = {"wall_seconds": round(wall_s, 3),
                         **usage,
                         "divisor": divisor}
        if returncode != 0:
            print(f"FAIL {name}: exit {returncode}", file=sys.stderr)
            failures.append(name)
        else:
            rss_gb = (usage["peak_rss_bytes"] or 0) / 1e9
            print(f"OK   {name}: {len(rows)} rows ({wall_s:.1f}s, "
                  f"{rss_gb:.2f} GB peak RSS, {usage['minor_faults']} "
                  f"minor faults, {usage['sys_seconds']}s sys)", flush=True)

    if args.timings:
        with open(out_dir / "timings.json", "w") as f:
            json.dump(timings, f, indent=2, sort_keys=True)
            f.write("\n")

    with open(out_dir / "all_figures.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["figure", "series", "x", "value"])
        writer.writerows(all_rows)

    print(f"\n{len(benches) - len(failures)}/{len(benches)} benches ok, "
          f"{len(all_rows)} rows, {checks_failed} shape-check failures "
          f"-> {out_dir}/all_figures.csv")
    if failures:
        print("failed: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
