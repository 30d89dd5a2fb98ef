#!/usr/bin/env python3
"""Compares ledger results of a parent and a change, metric by metric.

    python3 bench/ledger/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds result files written by mitos_bench (or
mitos_bench_traced) with --out: one JSON object per run, carrying its
"workload" and "seed". A parent run and a change run of the same workload and
seed form a pair; run the pairs alternately (parent first, then change first)
so host drift hits both sides. At least 10 pairs per workload are required.

For each (workload, metric) the verdict follows the choosing-metrics rules:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's own
              spread (interquartile range), in the better direction;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  no-worse    within the bound, and the parent's spread (IQR / median) is
              within the bound too;
  unresolved  the parent's spread is wider than the bound, and not every
              change run reads better than every parent run; also every
              metric without a bound that is not improved or worse by the
              pair rule, unless every pair ties (exact counts: no-worse).

Metrics BENCHMARK.json lists take its bound and direction; every other
metric in the files (the wall_* quantiles, for one) is compared without a
bound, lower being better.

Exit code 1 when any metric is worse, 0 otherwise, 2 on bad input.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        key = (doc["workload"], doc["seed"])
        if key in runs:
            sys.exit(f"compare.py: two runs of {key} in {directory}")
        runs[key] = doc
    return runs


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, lower_better, bound):
    if parent == change:
        return "no-worse"
    sign = 1 if lower_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gap = sign * (mp - mc)  # > 0 when the change is better
    if wins >= 0.9 * len(parent) and gap > spread:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * len(parent) and -gap > spread \
            else "unresolved"
    if mp != 0 and -gap / abs(mp) > bound:
        return "worse"
    if mp != 0 and spread / abs(mp) > bound:
        all_better = (max(change) < min(parent)) if lower_better \
            else (min(change) > max(parent))
        return "no-worse" if all_better else "unresolved"
    return "no-worse"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent_dir), load(args.change_dir)
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in keys})
    if not workloads:
        print("compare.py: no paired runs", file=sys.stderr)
        return 2

    any_worse = False
    print(f"{'workload':12s} {'metric':34s} {'parent med [q1,q3]':>30s} "
          f"{'change med':>12s} {'delta':>8s} {'wins':>6s}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < MIN_PAIRS:
            print(f"compare.py: {workload}: {len(seeds)} pairs, need "
                  f"{MIN_PAIRS}", file=sys.stderr)
            return 2
        names = sorted(set.intersection(
            *(set(parent[(workload, s)]["metrics"]) &
              set(change[(workload, s)]["metrics"]) for s in seeds)))
        for name in names:
            spec_m = bounds.get(name, {})
            p = [parent[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            lower_better = spec_m.get("better", "lower") == "lower"
            v = verdict(p, c, lower_better, spec_m.get("bound"))
            any_worse |= v == "worse"
            q = statistics.quantiles(p, n=4)
            mp, mc = statistics.median(p), statistics.median(c)
            delta = f"{(mc - mp) / mp:+.1%}" if mp else "n/a"
            sign = 1 if lower_better else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            print(f"{workload:12s} {name:34s} "
                  f"{f'{mp:.4g} [{q[0]:.4g},{q[2]:.4g}]':>30s} "
                  f"{mc:12.4g} {delta:>8s} {f'{wins}/{len(seeds)}':>6s}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
