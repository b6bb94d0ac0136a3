#!/usr/bin/env python3
"""Compares the benchmark runs of two commits; reports, gates nothing.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as run.py appends them (<build dir>/runs.jsonl
or --record FILE): the parent commit's runs in BASE, the change's in
CHANGE, made in alternating pairs with the same seeds and --seconds,
each pair running the other side first (base, change, change, base,
...). Only end-to-end (--trace 0) runs count. For every
workload x end-to-end metric it prints each side's median and quartiles,
the share of pairs (i-th base run, i-th change run) the change wins, and
a verdict following the method in the choosing-metrics guide:

  improved      the change wins >= 90% of the pairs (ties count for
                neither) and the medians differ, in the better direction,
                by more than the base runs' spread (their quartile
                distance);
  unresolved    the base runs' spread, as a share of their median, is
                wider than the metric's bound, and not every change run
                reads better than every base run;
  worse         the change's median is worse than the base median by
                more than the bound BENCHMARK.json fixes;
  within bound  otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

IMPROVED, WITHIN, WORSE, UNRESOLVED = (
    "improved", "within bound", "worse", "unresolved")


def load_runs(path):
    """{workload: {metric: [values in file order]}} of trace-0 runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            stamp = record.get("stamp", {})
            if stamp.get("trace") != 0:
                continue
            per_metric = runs.setdefault(stamp["workload"], {})
            for name, metric in record["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """Returns (verdict, wins, pairs) for one workload x metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return IMPROVED, wins, len(pairs)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread > bound and not all_better:
        return UNRESOLVED, wins, len(pairs)
    if -gain > bound * abs(b_med):
        return WORSE, wins, len(pairs)
    return WITHIN, wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, change = load_runs(args.base), load_runs(args.change)

    print("%-17s %-16s %-32s %-32s %-6s %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            print("%-17s (no runs on %s)" % (
                workload, "base" if workload not in base else "change"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base[workload].get(name, [])
            c = change[workload].get(name, [])
            if not b or not c:
                print("%-17s %-16s (missing)" % (workload, name))
                continue
            result, wins, pairs = verdict(b, c, metric["better"],
                                          metric["bound"])
            bq, cq = quartiles(b), quartiles(c)
            print("%-17s %-16s %-32s %-32s %-6s %s" % (
                workload, name,
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]),
                "%d/%d" % (wins, pairs), result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
