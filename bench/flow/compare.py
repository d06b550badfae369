#!/usr/bin/env python3
"""Compares two sets of bench_flow results and gives a verdict per metric.

    python3 bench/flow/compare.py <base results...> -- <head results...>

Each argument is a results JSON written by `run.py --out` (a directory
stands for every *.json in it). Traced runs are skipped: end-to-end numbers
come from untraced runs only. Runs are grouped by workload, and within a
workload the i-th base run is paired with the i-th head run in the order
given, so run the two sides alternately and pass the files in run order.

Prints one row per workload and end-to-end metric: each side's median and
quartiles, the change of the median, the share of pairs the head side won
(ties count for neither), and a verdict under the bounds in BENCHMARK.json:

  improved    at least 10 pairs, the head side won at least 9 in 10 of them,
              and the medians differ by more than the base side's spread
              (the distance between its quartiles)
  unresolved  either side's spread is wider than the bound, unless every
              head run is better than every base run
  regressed   the head median is worse than the base median by more than
              the bound
  unchanged   otherwise

Exits 1 if any row is regressed or unresolved, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def expand(paths):
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    return files


def load_runs(paths):
    """workload -> metric -> values, in the order the files were given."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in expand(paths):
        results = json.loads(path.read_text())
        if results.get("mode") == "traced":
            continue  # end-to-end numbers come from untraced runs only
        if not results.get("correct", False):
            print(f"compare.py: warning: {path} has incorrect outputs", file=sys.stderr)
        for name, metric in results["metrics"].items():
            runs[results["workload"]][name].append(metric["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    worse_by = sign * (h_med - b_med) / b_med if b_med else 0.0
    spread = max((b3 - b1) / b_med if b_med else 0.0, (h3 - h1) / h_med if h_med else 0.0)
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and \
            sign * (h_med - b_med) < 0 and abs(h_med - b_med) > (b3 - b1):
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return result, (b1, b_med, b3), (h1, h_med, h3), wins, len(pairs)


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_runs, head_runs = load_runs(argv[:split]), load_runs(argv[split + 1:])
    bounds = load_bounds()
    header = f"{'workload':<13} {'metric':<12} {'base median [q1, q3]':<31} " \
             f"{'head median [q1, q3]':<31} {'change':>8} {'won':>7}  verdict"
    print(header)
    print("-" * len(header))
    status = 0
    for workload in sorted(set(base_runs) | set(head_runs)):
        for name, spec in bounds.items():
            base, head = base_runs[workload][name], head_runs[workload][name]
            if not base or not head:
                print(f"{workload:<13} {name:<12} missing on one side")
                status = 1
                continue
            result, b, h, wins, pairs = verdict(
                base, head, spec["bound"], spec["better"] == "lower")
            base_col = f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]"
            head_col = f"{h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}]"
            change = (h[1] - b[1]) / b[1] * 100 if b[1] else 0.0
            print(f"{workload:<13} {name:<12} {base_col:<31} {head_col:<31} "
                  f"{change:+7.1f}% {wins:>3}/{pairs:<3}  {result}")
            if result in ("regressed", "unresolved"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
