#!/usr/bin/env python3
"""Compare two run sets written by ``run.py --repeat N --out FILE``.

    python3 bench/compare.py parent.json change.json

One row per (workload, metric): the parent's median, the change's
median, their ratio (change / parent, so the base is the parent), the
metric's bound from BENCHMARK.json and a verdict:

``better`` / ``worse``   the medians differ by more than the bound, in
                         the metric's good / bad direction
``unchanged``            they differ by less than the bound
``unresolved``           a side's own spread (interquartile distance
                         over its median) exceeds the bound, so a
                         difference of that size cannot be told from
                         noise; not a pass

With a single file it prints each metric's spread against its bound —
the check the benchmark must pass on its own before it can gate
anything.  Exit code 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """(workload, metric) -> values, in run order."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table: dict = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            table.setdefault((run["workload"], metric), []).append(
                entry["value"])
    return table


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: list, change: list, better: str,
            bound: float | None) -> str:
    base, new = statistics.median(parent), statistics.median(change)
    limit = bound if bound is not None else 0.0
    if bound is not None and max(spread(parent), spread(change)) > bound:
        return "unresolved"
    if not base:
        return "unchanged" if not new else "worse"
    gain = (new - base) / abs(base)
    if better == "lower":
        gain = -gain
    if gain > limit:
        return "better"
    if gain < -limit:
        return "worse"
    return "unchanged"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load_runs(argv[0])
    change = load_runs(argv[1]) if len(argv) == 2 else None
    bad = 0
    if change is None:
        print(f"{'workload':16s} {'metric':30s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for (workload, metric), values in parent.items():
            bound = declared.get(metric, {}).get("bound")
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            wide = bound is not None and metric != "setup_s" \
                and spread(values) > bound
            bad += wide
            print(f"{workload:16s} {metric:30s} "
                  f"{statistics.median(values):12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread(values):7.3f} "
                  f"{'' if bound is None else format(bound, '6.2f')}"
                  f"{'  TOO WIDE' if wide else ''}")
        return 1 if bad else 0
    print(f"{'workload':16s} {'metric':30s} {'parent':>12s} {'change':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    for key, base_values in parent.items():
        if key not in change:
            continue
        workload, metric = key
        info = declared.get(metric, {})
        bound = info.get("bound")
        base = statistics.median(base_values)
        new = statistics.median(change[key])
        result = verdict(base_values, change[key],
                         info.get("better", "lower"), bound)
        # Per-layer metrics have no bound: they explain, they do not gate.
        if bound is not None and result in ("worse", "unresolved"):
            bad += 1
        ratio = f"{new / base:7.3f}" if base else "    n/a"
        print(f"{workload:16s} {metric:30s} {base:12.4f} {new:12.4f} "
              f"{ratio} {'' if bound is None else format(bound, '6.2f'):>6s}"
              f"  {result}  (x parent, n={len(base_values)}/"
              f"{len(change[key])})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
