#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results, per workload and metric.

    python3 bench/e2e/compare.py DIR_A DIR_B

DIR_A (the parent commit) and DIR_B (the change) hold the files that
`run.py --out-dir` writes, one per run. Run at least ten pairs, alternating
which side runs first, with the same seeds on both sides; runs are paired by
seed. For every end-to-end metric of BENCHMARK.json the table gives each
side's median and quartiles and one verdict:

  improved    B beats A in at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than A's quartile spread
  unresolved  either side's quartile spread, as a share of its median, is wider
              than the metric's bound, and not every B run beats every A run
  worse       B's median is worse than A's by more than the bound
  no-worse    otherwise

Per-layer metrics (files from --trace 1) have no bound; their medians are
printed without a verdict. The exit code is 1 when any end-to-end metric is
worse or unresolved, or when a run failed a correctness check.
"""
import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    """Returns {(workload, trace): {seed: result}}."""
    runs = collections.defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            d = json.load(f)
        runs[(d["workload"], d["trace"])][d["seed"]] = d["result"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(pairs, better):
    """Pairs (a, b) in which B reads better than A; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for x, y in pairs if sign * (y - x) > 0)


def verdict(a, b, pairs, better, bound):
    """a, b: values per side; pairs: (a, b) tuples matched by seed."""
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    if pairs and wins(pairs, better) >= 0.9 * len(pairs) and abs(b_med - a_med) > a3 - a1:
        return "improved"
    all_better = min(b) > max(a) if better == "higher" else max(b) < min(a)
    spread_a = (a3 - a1) / abs(a_med) if a_med else 0.0
    spread_b = (b3 - b1) / abs(b_med) if b_med else 0.0
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    worsening = (a_med - b_med) if better == "higher" else (b_med - a_med)
    if worsening > bound * abs(a_med):
        return "worse"
    return "no-worse"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir_a", help="results of the parent commit (run.py --out-dir)")
    parser.add_argument("dir_b", help="results of the change")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    side_a, side_b = load(args.dir_a), load(args.dir_b)

    failing = False
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        runs_a, runs_b = side_a[key], side_b[key]
        for side, runs in (("A", runs_a), ("B", runs_b)):
            bad = sorted(seed for seed, r in runs.items() if not r["correct"])
            if bad:
                print(f"{workload}: side {side} failed correctness checks on seeds {bad}")
                failing = True
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:  # no common seeds: pair runs in seed order
            seeds = list(zip(sorted(runs_a), sorted(runs_b)))
        else:
            seeds = [(s, s) for s in seeds]
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(runs_a)} vs {len(runs_b)} runs, {len(seeds)} pairs)")
        print(f"  {'metric':36s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s}"
              f" {'change':>8s} {'wins':>6s}  verdict")
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in runs_a.values()]
            b = [r["metrics"][name]["value"] for r in runs_b.values()]
            pairs = [(runs_a[sa]["metrics"][name]["value"], runs_b[sb]["metrics"][name]["value"])
                     for sa, sb in seeds]
            a1, a_med, a3 = quartiles(a)
            b1, b_med, b3 = quartiles(b)
            change = (b_med - a_med) / abs(a_med) * 100.0 if a_med else 0.0
            v = ""
            if "bound" in m:
                v = verdict(a, b, pairs, m["better"], m["bound"])
                failing = failing or v in ("worse", "unresolved")
                v += f" (bound {m['bound']:.0%})"
            a_txt = f"{a_med:.6g} [{a1:.4g}, {a3:.4g}]"
            b_txt = f"{b_med:.6g} [{b1:.4g}, {b3:.4g}]"
            print(f"  {name:36s} {a_txt:>36s} {b_txt:>36s} {change:>+7.2f}% "
                  f"{wins(pairs, m['better']):>3d}/{len(pairs):<2d}  {v}")
    only = sorted(set(side_a) ^ set(side_b))
    if only:
        print(f"\nworkloads on one side only: {only}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
