"""Compare two sets of benchmark results, metric by metric and workload by workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/trend.py PARENT CHANGE [--layers]

``PARENT`` and ``CHANGE`` are directories of result files written by
``run.py --out DIR`` (or single files).  For every end-to-end metric of
``BENCHMARK.json`` and every workload present on both sides, one row
gives each side's median and quartiles and a verdict:

* ``regression`` - the change's median is worse than the parent's by more
  than the metric's bound;
* ``better`` - the change wins at least nine tenths of the runs paired by
  seed (all-against-all when no seeds pair up) and the medians differ by
  more than the parent's interquartile distance;
* ``unresolved`` - the parent's own interquartile spread exceeds the bound,
  and not every change run beats every parent run;
* ``same`` - none of the above.

``--layers`` adds the per-layer metrics of traced runs (medians and the
relative change only; they carry no bound).  The exit code is 1 when any
row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

# (workload, trace) -> metric -> seed -> value
Table = Dict[Tuple[str, int], Dict[str, Dict[int, float]]]


def load(path: str) -> Table:
    """Result files under ``path`` grouped by workload and trace flag."""
    target = Path(path)
    files = [target] if target.is_file() else sorted(target.glob("*-trace[01].json"))
    table: Table = {}
    for file in files:
        record = json.loads(file.read_text())
        if record.get("smoke"):
            continue
        key = (record["workload"], int(record["trace"]))
        for name, metric in record["result"]["metrics"].items():
            table.setdefault(key, {}).setdefault(name, {})[record["seed"]] = metric["value"]
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(parent: Dict[int, float], change: Dict[int, float],
            bound: float, better: str) -> Tuple[str, float]:
    """Verdict and signed relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p1, p_med, p3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else sign * (c_med - p_med)
    beats = lambda c, p: sign * (c - p) < 0  # noqa: E731
    seeds = sorted(set(parent) & set(change))
    pairs = ([(change[s], parent[s]) for s in seeds] if seeds
             else [(c, p) for c in c_values for p in p_values])
    wins = sum(1 for c, p in pairs if beats(c, p))
    everyone = all(beats(c, p) for c in c_values for p in p_values)
    if spread(p_values) > bound and not everyone:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p3 - p1):
        return "better", worse
    return "same", worse


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(parent: Table, change: Table, spec: dict, layers: bool) -> int:
    regressions = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'metric':<34} {'workload':<20} {'parent median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'worse':>8}  verdict")
    for metric in spec["end_to_end"]:
        for workload in workloads:
            p = parent.get((workload, 0), {}).get(metric["name"])
            c = change.get((workload, 0), {}).get(metric["name"])
            if not p or not c:
                continue
            label, worse = verdict(p, c, metric["bound"], metric["better"])
            regressions += label == "regression"
            print(f"{metric['name']:<34} {workload:<20} {_fmt(list(p.values())):<40} "
                  f"{_fmt(list(c.values())):<40} {worse:>+8.2%}  {label}")
    if layers:
        print()
        for metric in spec["per_layer"]:
            for workload in workloads:
                p = parent.get((workload, 1), {}).get(metric["name"])
                c = change.get((workload, 1), {}).get(metric["name"])
                if not p or not c:
                    continue
                p_med, c_med = statistics.median(p.values()), statistics.median(c.values())
                if p_med == c_med == 0:
                    continue
                delta = (c_med - p_med) / abs(p_med) if p_med else float("inf")
                print(f"{metric['name']:<34} {workload:<20} {_fmt(list(p.values())):<40} "
                      f"{_fmt(list(c.values())):<40} {delta:>+8.2%}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true",
                        help="also compare per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(args.parent), load(args.change), spec, args.layers)


if __name__ == "__main__":
    sys.exit(main())
