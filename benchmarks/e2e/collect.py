"""Run the acceptance sets of the benchmark and write its baseline record.

Usage (from the repository root)::

    python3 benchmarks/e2e/collect.py --out benchmarks/e2e/out/accept \
        --runs 10 --sets 2 --baseline benchmarks/e2e/baseline.json

Each set runs every workload ``--runs`` times, one fresh process per run,
seeds ``0 .. runs-1``, with the workload order reversed on every other
seed; then one traced run per workload.  A run whose result file already
exists is not repeated, so an interrupted collection resumes.  The report
gives, per set and workload, each end-to-end metric's median, quartiles
and spread (interquartile distance over median) against its bound, and
whether the second set's median is within the bound of the first's.
``--baseline`` writes all of it, with host facts and the traced per-layer
tables, as JSON.  The exit code is 1 when a run failed or a check missed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from trend import load, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(workload: str, seed: int, trace: int, out: Path) -> bool:
    if (out / f"{workload}-seed{seed}-trace{trace}.json").exists():
        return True
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    print(f"  {workload:<20} seed {seed:<3} trace {trace}: exit {proc.returncode}", flush=True)
    if proc.returncode:
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode == 0


def _host() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git": sha,
    }


def _summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the runs' results")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--baseline", help="write the baseline record to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    out = Path(args.out)

    ok = True
    for k in range(1, args.sets + 1):
        print(f"set {k}", flush=True)
        for seed in range(args.runs):
            for workload in (names if seed % 2 == 0 else names[::-1]):
                ok &= _run(workload, seed, 0, out / f"set{k}")
    print("traced", flush=True)
    for workload in names:
        ok &= _run(workload, 0, 1, out / "traced")

    sets = [load(str(out / f"set{k}")) for k in range(1, args.sets + 1)]
    summaries = [
        {w: {m: _summary(list(vals.values())) for m, vals in table.get((w, 0), {}).items()}
         for w in names}
        for table in sets
    ]
    acceptance = {}
    print(f"\n{'metric':<20} {'workload':<20} {'bound':>6} "
          + " ".join(f"{'median ' + str(k + 1):>12} {'spread':>7}" for k in range(len(sets)))
          + "  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for w in names:
            rows = [s[w].get(name) for s in summaries]
            if any(r is None for r in rows):
                continue
            spreads_ok = name == "setup_s" or all(r["spread"] <= bound for r in rows)
            first, last = rows[0]["median"], rows[-1]["median"]
            drift = sign * (last - first) / abs(first) if first else 0.0
            verdict = "ok" if spreads_ok and drift <= bound else "MISS"
            ok &= verdict == "ok"
            acceptance.setdefault(w, {})[name] = {
                "bound": bound, "spreads": [r["spread"] for r in rows],
                "median_drift": drift, "verdict": verdict,
            }
            print(f"{name:<20} {w:<20} {bound:>6.2f} "
                  + " ".join(f"{r['median']:>12.6g} {r['spread']:>7.3f}" for r in rows)
                  + f"  {verdict}")

    if args.baseline:
        traced = {}
        for w in names:
            record_path = out / "traced" / f"{w}-seed0-trace1.json"
            layers_path = out / "traced" / f"{w}-seed0.layers.json"
            if record_path.exists() and layers_path.exists():
                record = json.loads(record_path.read_text())
                traced[w] = {
                    "per_layer": {m: v["value"] for m, v in
                                  record["result"]["metrics"].items()},
                    "layers": json.loads(layers_path.read_text()),
                }
        Path(args.baseline).write_text(json.dumps({
            "benchmark": "benchmarks/e2e",
            "host": _host(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(range(args.runs)),
            "sets": summaries,
            "acceptance": acceptance,
            "traced": traced,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
