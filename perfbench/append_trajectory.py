#!/usr/bin/env python3
"""Appends one line to perfbench/trajectory.jsonl from a result set.

    append_trajectory.py SET.jsonl --label "what changed" [--sha SHA]

SET.jsonl holds untraced runs written by run.py --record. The line records
the host (cores, SIMD tier, CPU model, compiler, build type), the commit
measured, and the median of every end-to-end metric per workload, so the
repository keeps its own performance history.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set")
    parser.add_argument("--label", required=True, help="what this line measures")
    parser.add_argument("--sha", help="commit measured (default: git HEAD)")
    args = parser.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        end_to_end = [m["name"] for m in json.load(f)["end_to_end"]]
    records = [json.loads(l) for l in open(args.set) if l.strip()]
    records = [r for r in records if not r.get("trace")]
    if not records:
        parser.error(f"{args.set} holds no untraced runs")
    hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(hosts) != 1:
        parser.error("the set mixes runs from different hosts or builds")
    sha = args.sha or git_sha()
    if not sha:
        parser.error("not in a git checkout; pass --sha")

    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    metrics = {}
    runs = {}
    for workload, rs in sorted(by_workload.items()):
        runs[workload] = len(rs)
        metrics[workload] = {
            name: statistics.median(r["result"]["metrics"][name]["value"] for r in rs)
            for name in end_to_end}
    line = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "git_sha": sha,
        "host": records[0]["host"],
        "seconds": records[0]["seconds"],
        "runs": runs,
        "median": metrics,
    }
    with open(HERE / "trajectory.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
