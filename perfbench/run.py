#!/usr/bin/env python3
"""Builds the benchmark suite from this checkout and runs one workload.

    python3 perfbench/run.py --workload hwtopk --seed 42 --seconds 15 --trace 0

Build output, spill files and traces stay
under .bench_build/ in the checkout. The last line of standard output is the
run's result object ({"correct", "attempted", "failed", "metrics"}); with
--trace 1 the metrics are the per-layer ones and the spans are written to
.bench_build/traces/. --record FILE also appends the result, with the
workload, seed and host facts, to a JSON-lines file that compare.py and
append_trajectory.py read.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SOURCE = Path(__file__).resolve().parent
ROOT = SOURCE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
SUITE = BUILD / "perfbench_suite"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(env):
    """Configures (once) and builds the suite; build logs go to stderr."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_suite",
         "-j", jobs],
        check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this file")
    args = parser.parse_args()

    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(SUITE), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{args.workload}-seed{args.seed}.json'}")
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: suite exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines[:-1]), file=sys.stderr)
    print(lines[-1])

    if args.record:
        host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "started": started, "host": host,
                  "result": json.loads(lines[-1])}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
