"""Compare benchmark reports of a parent commit and a change, metric by metric.

    python3 perfbench/compare.py PARENT_1.json ... PARENT_n.json \\
                                 CHANGE_1.json ... CHANGE_n.json

Each file is a report written by ``run.py -o``. Give the same number for
each side, in run order: pair ``i`` is ``(PARENT_i, CHANGE_i)``, both sides
of a pair ran the same seed, and the runs should alternate which side goes
first. For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs the change won, and a verdict, using the
bounds in ``BENCHMARK.json``. The rules are tried in this order:

- ``improved``: at least :data:`MIN_PAIRS` pairs, the change won at least
  :data:`WIN_SHARE` of them (ties count for neither side), and the medians
  differ by more than the distance between the parent's quartiles (its IQR);
- ``regressed``: the change's median is worse than the parent's by more than
  the bound, and either by more than the parent's IQR too, or every change
  run reads worse than every parent run;
- ``no worse``: every change run reads better than every parent run, or
  every one reads worse but by no more than the bound;
- ``unresolved``: the parent's IQR is wider than the bound (as a share of
  its median);
- ``no worse``: otherwise.

A metric in :data:`PAIRED_BOUNDS` repeats exactly for a given seed, so it has
no host noise to resolve. It is compared pair by pair instead: ``regressed``
when the median of the per-pair changes is worse than its bound there.

The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Bounds on the median per-pair change of metrics that repeat exactly for a
#: seed. ``BENCHMARK.json`` bounds ``tracking_error`` by its spread across
#: seeds, which is wider.
PAIRED_BOUNDS = {"tracking_error": 0.02}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(xs, n=4)`` gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, paired: bool = False) -> tuple[str, float]:
    """The verdict on one metric, and the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    p_iqr = p_q3 - p_q1
    gain = sign * (quartiles(change)[1] - p_med)
    if len(parent) >= MIN_PAIRS and share >= WIN_SHARE and gain > p_iqr:
        return "improved", share
    if paired:
        loss = -statistics.median(sign * (c - p) / abs(p)
                                  for p, c in zip(parent, change))
        return ("regressed" if loss > bound else "no worse"), share
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if -gain > bound * abs(p_med) and (-gain > p_iqr or all_worse):
        return "regressed", share
    if all_better or all_worse:
        return "no worse", share
    if p_iqr > bound * abs(p_med):
        return "unresolved", share
    return "no worse", share


def load(path: str) -> tuple[int, dict[str, dict[str, float]]]:
    """``(seed, {workload: {metric: value}})`` from one ``run.py -o`` report."""
    with open(path) as fh:
        report = json.load(fh)
    return report["seed"], {name: {m: v["value"] for m, v in rep["metrics"].items()}
                            for name, rep in report["workloads"].items()}


def compare(parents: list[dict], changes: list[dict], spec: dict) -> list[dict]:
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        if not all(name in r for r in parents + changes):
            continue
        for m in spec["end_to_end"]:
            p = [r[name][m["name"]] for r in parents]
            c = [r[name][m["name"]] for r in changes]
            bound = PAIRED_BOUNDS.get(m["name"], m["bound"])
            v, share = verdict(p, c, m["better"], bound,
                               paired=m["name"] in PAIRED_BOUNDS)
            rows.append({"workload": name, "metric": m["name"], "unit": m["unit"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "wins": share, "verdict": v})
    return rows


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        print("compare: give the same number of parent and change reports",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    n = len(paths) // 2
    reports = [load(p) for p in paths]
    for i in range(n):
        if reports[i][0] != reports[n + i][0]:
            print(f"compare: pair {i + 1} ran seeds {reports[i][0]} and "
                  f"{reports[n + i][0]}; both sides of a pair need the same seed",
                  file=sys.stderr)
            return 2
    values = [r for _, r in reports]
    rows = compare(values[:n], values[n:], spec)
    print(f"{n} pairs" + ("" if n >= MIN_PAIRS else
                          f" (fewer than {MIN_PAIRS}: no gain can be claimed)"))
    print(f"{'workload':15s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>5s}  verdict")
    for r in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
        print(f"{r['workload']:15s} {r['metric']:16s} "
              f"{pm:11.5g} [{pq1:9.5g}, {pq3:9.5g}] "
              f"{cm:11.5g} [{cq1:9.5g}, {cq3:9.5g}] "
              f"{(cm - pm) / abs(pm):+8.2%} {r['wins']:5.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
