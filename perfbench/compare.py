#!/usr/bin/env python3
"""Summarizes and compares benchmark result sets written by run.py --record.

    compare.py SET                    median and quartiles per (workload, metric)
    compare.py PARENT CHANGE          gain / no-regression verdict per row
    compare.py --same SET_A SET_B     two sets of one commit agree within bounds
    compare.py --self-test            checks the verdicts on perfbench/fixtures
    compare.py --check-catalog SUITE  the suite's metric names match BENCHMARK.json

A set is a JSON-lines file, one untraced run per line. Rows cover the
end-to-end metrics of BENCHMARK.json, each with its unit, direction and
bound. Compare mode applies the rules for claiming a change:
  - every run of either side must be correct, or the workload's rows are
    "incorrect";
  - a change whose failed / attempted operations exceed the parent's has
    regressed on that workload, and none of its rows counts as a gain;
  - a deterministic metric (equal seeds give equal values) has regressed
    when the change is worse on any seed;
  - at least 10 parent/change pairs, paired by seed, run alternately;
  - "gain" needs the change to win at least 9 of 10 pairs (ties count for
    neither side) and the medians to differ by more than the parent's
    interquartile range;
  - otherwise the change's median may be worse than the parent's by at most
    the metric's bound ("no regression"), unless the parent's own spread
    exceeds the bound, which makes the row "unresolved" -- except when every
    change run beats every parent run.
Exit status: 0 when no row regressed or was incorrect (compare), or every
row agreed (--same).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
# Functions of the inputs alone: equal seeds must give equal values.
DETERMINISTIC = {"comm_bytes", "sim_s"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_set(path):
    """{workload: {seed: record}} of the untraced runs in `path`."""
    runs = defaultdict(dict)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[record["workload"]][record["seed"]] = record
    return runs


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def quartiles(vals):
    """(q1, median, q3) as statistics.quantiles(vals, n=4) gives them."""
    if len(vals) < 2:
        v = vals[0] if vals else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def worse_share(change, parent, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def alternated(pairs):
    """True when each pair's two runs are adjacent in time and the side that
    ran first alternates from pair to pair."""
    events = sorted((r["started"], side, seed)
                    for seed, (p, c) in pairs.items()
                    for side, r in (("parent", p), ("change", c)))
    firsts = []
    for i in range(0, len(events) - 1, 2):
        (_, side_a, seed_a), (_, side_b, seed_b) = events[i], events[i + 1]
        if seed_a != seed_b or side_a == side_b:
            return False
        firsts.append(side_a)
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def failed_share(records):
    return (sum(r["result"]["failed"] for r in records)
            / max(1, sum(r["result"]["attempted"] for r in records)))


def verdict(pairs, metric, gain_allowed):
    better, bound = metric["better"], metric["bound"]
    if (metric["name"] in DETERMINISTIC
            and any(is_better(p, c, better) for p, c in pairs)):
        return "regression"
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} pairs < {MIN_PAIRS})"
    pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
    wins = sum(is_better(c, p, better) for p, c in pairs)
    pq1, pmed, pq3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    if (wins >= WIN_SHARE * len(pairs) and is_better(cmed, pmed, better)
            and abs(cmed - pmed) > pq3 - pq1):
        return "gain" if gain_allowed else "no gain (more failed operations)"
    if spread(pv) > bound:
        every = all(is_better(c, p, better) for c in cv for p in pv)
        return "no regression (every run)" if every else "unresolved"
    if worse_share(cmed, pmed, better) > bound:
        return "regression"
    return "no regression"


def fmt(q):
    return "/".join(f"{v:.5g}" for v in q)


def summarize(runs, metrics, out):
    out.write(f"{'workload':14} {'metric':16} {'n':>3}  q1/median/q3  spread\n")
    for w in sorted(runs):
        records = list(runs[w].values())
        for name in metrics:
            vals = values(records, name)
            out.write(f"{w:14} {name:16} {len(vals):3}  {fmt(quartiles(vals))}"
                      f"  {spread(vals) * 100:.2f}%\n")


def compare(parent, change, metrics, out):
    """Prints one row per (workload, metric); returns the rows' verdicts,
    with a (workload, "failed/attempted") row where failures rose."""
    verdicts = {}
    out.write(f"{'workload':14} {'metric':16} {'parent q1/med/q3':30} "
              f"{'change q1/med/q3':30} wins  verdict\n")
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        both = {s: (parent[w][s], change[w][s]) for s in seeds}
        runs = [r for pair in both.values() for r in pair]
        if not all(r["result"]["correct"] for r in runs):
            for name in metrics:
                verdicts[(w, name)] = "incorrect"
            out.write(f"{w}: a run is incorrect; no row is judged\n")
            continue
        if seeds and not alternated(both):
            out.write(f"{w}: runs were not alternated parent/change pair by pair\n")
        p_failed = failed_share([p for p, _ in both.values()])
        c_failed = failed_share([c for _, c in both.values()])
        if c_failed > p_failed:
            verdicts[(w, "failed/attempted")] = "regression"
            out.write(f"{w}: failed/attempted rose from {p_failed:.5g} to "
                      f"{c_failed:.5g}: regression\n")
        for name, metric in metrics.items():
            pairs = [(p["result"]["metrics"][name]["value"],
                      c["result"]["metrics"][name]["value"])
                     for p, c in both.values()]
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            v = verdict(pairs, metric, c_failed <= p_failed)
            wins = sum(is_better(c, p, metric["better"]) for p, c in pairs)
            verdicts[(w, name)] = v
            out.write(f"{w:14} {name:16} {fmt(quartiles(pv)):30} "
                      f"{fmt(quartiles(cv)):30} {wins:2}/{len(pairs):<2} {v}\n")
    return verdicts


def same(a, b, metrics, out):
    """Two sets of one commit: medians within each metric's bound, equal
    deterministic metrics for equal seeds, every run correct. Returns the
    failing rows."""
    failures = []
    for w in sorted(set(a) | set(b)):
        if w not in a or w not in b:
            failures.append((w, "missing from one set"))
            continue
        for side in (a[w], b[w]):
            for seed, r in side.items():
                res = r["result"]
                if not res["correct"] or res["failed"]:
                    failures.append((w, f"seed {seed}: incorrect or failed ops"))
        for name, metric in metrics.items():
            va, vb = values(a[w].values(), name), values(b[w].values(), name)
            ma, mb = quartiles(va)[1], quartiles(vb)[1]
            diff = abs(mb - ma) / abs(ma) if ma else (0.0 if mb == ma else 1.0)
            ok = diff <= metric["bound"]
            if name in DETERMINISTIC:
                for seed in set(a[w]) & set(b[w]):
                    if (a[w][seed]["result"]["metrics"][name]["value"]
                            != b[w][seed]["result"]["metrics"][name]["value"]):
                        ok = False
            if not ok:
                failures.append((w, name))
            out.write(f"{w:14} {name:16} {ma:14.6g} {mb:14.6g} "
                      f"{diff * 100:7.2f}% (bound {metric['bound'] * 100:.0f}%)"
                      f" {'ok' if ok else 'DIFFERS'}\n")
    return failures


def check_catalog(suite):
    catalog = json.loads(subprocess.run([suite, "--catalog"], check=True,
                                        capture_output=True, text=True).stdout)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    problems = []
    if catalog["workloads"] != [w["name"] for w in bench["workloads"]]:
        problems.append("workloads differ")
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in catalog[key]]
        have = [(m["name"], m["unit"]) for m in bench[key]]
        if want != have:
            problems.append(f"{key} differs: suite {want} vs BENCHMARK.json {have}")
    for p in problems:
        print(f"check-catalog: {p}", file=sys.stderr)
    return not problems


class _Null:
    def write(self, _):
        pass


def self_test():
    fx = HERE / "fixtures"
    metrics = load_benchmark(fx / "benchmark.json")
    parent = load_set(fx / "parent.jsonl")
    expected = {
        "change_gain.jsonl": {
            ("build", "latency_ms_p50"): "gain",
            ("build", "comm_bytes"): "no regression",
            ("noisy", "latency_ms_p50"): "unresolved",
        },
        "change_regression.jsonl": {
            ("build", "latency_ms_p50"): "regression",
            ("build", "comm_bytes"): "regression",
            ("noisy", "latency_ms_p50"): "no regression (every run)",
        },
        "change_few.jsonl": {
            ("build", "latency_ms_p50"): "unresolved (4 pairs < 10)",
        },
        "change_det_worse.jsonl": {
            ("build", "latency_ms_p50"): "no regression",
            ("build", "comm_bytes"): "regression",
        },
        "change_incorrect.jsonl": {
            ("build", "latency_ms_p50"): "incorrect",
            ("build", "comm_bytes"): "incorrect",
            ("noisy", "latency_ms_p50"): "unresolved",
        },
        "change_failed.jsonl": {
            ("build", "failed/attempted"): "regression",
            ("build", "latency_ms_p50"): "no gain (more failed operations)",
            ("build", "comm_bytes"): "no regression",
        },
    }
    failures = []
    for name, want in expected.items():
        got = compare(parent, load_set(fx / name), metrics, _Null())
        for row, v in want.items():
            if got.get(row) != v:
                failures.append(f"{name} {row}: got {got.get(row)!r}, want {v!r}")
    if same(parent, load_set(fx / "same_ok.jsonl"), metrics, _Null()):
        failures.append("same_ok.jsonl: --same failed")
    bad = same(parent, load_set(fx / "same_det_differs.jsonl"), metrics, _Null())
    if bad != [("build", "comm_bytes")]:
        failures.append(f"same_det_differs.jsonl: got {bad}")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print("self-test: " + ("ok" if not failures else "FAILED"))
    return not failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("sets", nargs="*")
    parser.add_argument("--same", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-catalog", metavar="SUITE")
    args = parser.parse_args()

    if args.self_test:
        return 0 if self_test() else 1
    if args.check_catalog:
        return 0 if check_catalog(args.check_catalog) else 1
    metrics = load_benchmark(BENCHMARK)
    sets = [load_set(p) for p in args.sets]
    if len(sets) == 1 and not args.same:
        summarize(sets[0], metrics, sys.stdout)
        return 0
    if len(sets) != 2:
        parser.error("give one set to summarize or two to compare")
    if args.same:
        failures = same(sets[0], sets[1], metrics, sys.stdout)
        for w, what in failures:
            print(f"DIFFERS {w}: {what}")
        return 1 if failures else 0
    verdicts = compare(sets[0], sets[1], metrics, sys.stdout)
    failing = {"regression", "incorrect"}
    return 1 if failing & set(verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
