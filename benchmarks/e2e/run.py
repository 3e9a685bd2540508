"""End-to-end benchmark of the fingerprinting flow.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload table2-flow --seed 0 \
        --seconds 30 --trace 0

One run sets up (imports, input generation, a c17 warm-up), then repeats
the workload's pass until ``--seconds`` are spent, checks every pass
against known answers, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the run alternates plain and traced passes and prints the per-layer ones.
Times are reference seconds (``speed.py``), medians over the run's passes.
A run also writes its result (and, traced, a per-layer table and a Chrome
trace) under ``--out``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Designs whose traced row time is reported as ``row.<design>.s``.
ROW_DESIGNS = ("C432", "C499", "C880", "k2", "i10")

# Program counters reported under their own name, plus two renamed ones.
COUNTERS = (
    "techmap.gates", "fingerprint.candidates_rejected", "odcwin.candidates",
    "odcwin.windows_built", "odcwin.const_confirmed", "odcwin.sim_refuted",
    "odcwin.window_sat_confirmed", "odcwin.miter_discharged", "timing.analyses",
    "ir.compile", "ladder.tier.structural", "ladder.tier.exhaustive-sim",
    "ladder.tier.sat-cec", "ladder.tier.random-sim", "ladder.budget_hits",
    "sat.conflicts", "sat.propagations",
)
SECONDS_COUNTERS = {"sat.solve_s": "sat.solve_seconds",
                    "sat.preprocess_s": "sat.preprocess.seconds"}

LAYER_SECONDS = (
    "netlist.parse", "techmap.map", "netlist.validate", "fingerprint.locate",
    "fingerprint.capacity", "fingerprint.encode", "fingerprint.embed",
    "fingerprint.constrain", "flows.ladder", "flows.batch.setup",
    "analysis.measure", "netlist.write",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _latency_quartiles(plain):
    """Quartiles over the pass's distinct operations (designs or copies).

    Every pass repeats the same operations, so each one's latency is its
    median over the run's passes; the inclusive method keeps the
    quartiles of a two- or three-design pass inside the measured range.
    """
    per_op = [statistics.median(times)
              for times in zip(*[[item.seconds for item in out.issued] for out in plain])]
    if len(per_op) == 1:
        return per_op[0], per_op[0], per_op[0]
    return tuple(statistics.quantiles(per_op, n=4, method="inclusive"))


def _parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's shape on the bundled c17")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result, layer-table and trace files")
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    from repro import telemetry

    import workloads

    return telemetry, workloads


def _setup(workloads, workload, opts, scratch, sampler):
    """Inputs plus a c17 warm-up, five times; returns inputs and the median
    in reference seconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        inputs = workloads.make_inputs(workload)
        workloads.warm_up(workload, opts, scratch, sampler)
        times.append(sampler.ref_seconds(start, time.perf_counter()))
    return inputs, statistics.median(times)


def _e2e_metrics(plain, full_check, setup_s):
    """End-to-end metrics of a run's plain passes.

    Every pass does identical work, so a timing is its median over the
    run's passes, each pass in reference seconds (``speed.py``).
    """
    _, p50, p75 = _latency_quartiles(plain)
    first = plain[0]
    overheads = [item.overheads for item in first.issued]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(out.wall for out in plain), "s"),
        "copies_per_s": (statistics.median(
            _ratio(len(out.issued), out.issue_seconds) for out in plain), "copies/s"),
        "copy_p50_s": (p50, "s"),
        "copy_p75_s": (p75, "s"),
        "proven_frac": (_ratio(full_check.proven, full_check.attempted), "ratio"),
        "fingerprint_bits": (first.bits, "bits"),
        "surviving_bits": (first.surviving_bits, "bits"),
        "area_overhead_pct": (100 * statistics.fmean(o[0] for o in overheads), "%"),
        "delay_overhead_pct": (100 * statistics.fmean(o[1] for o in overheads), "%"),
        "power_overhead_pct": (100 * statistics.fmean(o[2] for o in overheads), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer_metrics(out, spans, counters):
    """Per-layer metrics of one traced pass, its seconds scaled to
    reference seconds by the pass's calibration."""
    table = layers.layer_table(spans)
    scale = out.scale
    metrics = {}
    for layer in LAYER_SECONDS:
        metrics[f"{layer}_s"] = (scale * table.get(layer, {}).get("self_s", 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0.0), "count")
    for name, counter in SECONDS_COUNTERS.items():
        metrics[name] = (scale * counters.get(counter, 0.0), "s")
    extras = out.extras
    ladder = table.get("flows.ladder", {})
    metrics["ladder.other_s"] = (scale * (
        ladder.get("self_s", 0.0)
        - ladder.get("sat.solve_seconds", 0.0)
        - ladder.get("sat.preprocess.seconds", 0.0)), "s")
    metrics["sat.decisions"] = (extras.get("sat.decisions", 0.0), "count")
    metrics["sat.props_per_s"] = (_ratio(counters.get("sat.propagations", 0.0),
                                         metrics["sat.solve_s"][0]), "1/s")
    metrics["fingerprint.locations"] = (extras.get("fingerprint.locations", 0.0), "count")
    metrics["constrain.steps"] = (extras.get("constrain.steps", 0.0), "count")
    metrics["constrain.greedy_frac"] = (_ratio(extras.get("constrain.greedy", 0.0),
                                               extras.get("constrain.steps", 0.0)), "ratio")
    metrics["sat.incremental.sat_calls"] = (extras.get("sat.incremental.sat_calls", 0.0), "count")
    metrics["sat.incremental.sim_disproofs"] = (
        extras.get("sat.incremental.sim_disproofs", 0.0), "count")
    metrics["sat.incremental.outputs_structural_frac"] = (_ratio(
        extras.get("sat.incremental.outputs_structural", 0.0),
        extras.get("sat.incremental.outputs_total", 0.0)), "ratio")
    metrics["sat.incremental.gates_reused_frac"] = (_ratio(
        extras.get("sat.incremental.gates_reused", 0.0),
        extras.get("sat.incremental.gates_reused", 0.0)
        + extras.get("sat.incremental.gates_encoded", 0.0)), "ratio")
    rows = {}
    for record in spans:
        if record.name.startswith("row."):
            rows[record.name[4:]] = rows.get(record.name[4:], 0.0) + record.duration
    for design in ROW_DESIGNS:
        metrics[f"row.{design}.s"] = (scale * rows.get(design, 0.0), "s")
    layer_self = sum(row["self_s"] for row in table.values())
    metrics["unattributed_s"] = (scale * (out.raw_wall - layer_self), "s")
    return metrics, table


def _median_metrics(samples):
    """Per-metric median over passes of ``{name: (value, unit)}`` dicts."""
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        telemetry, workloads = _import_program()
        import_s = sampler.ref_seconds(start, time.perf_counter())
        workload = workloads.WORKLOADS[args.workload]
        if args.smoke:
            workload = workload.smoke()
        opts = workloads.options(workload, args.seed)
        os.makedirs(args.out, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="e2e-", dir=args.out)
        try:
            return _run(args, workload, opts, scratch, sampler, import_s, telemetry,
                        workloads)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload, opts, scratch, sampler, import_s, telemetry, workloads) -> int:
    inputs, warm_s = _setup(workloads, workload, opts, scratch, sampler)
    setup_s = import_s + warm_s

    registry = telemetry.get_registry()
    recorder = layers.Recorder(lambda: registry.counters)
    plain, traced, checks, digests, problems = [], [], [], set(), []
    attempted = failed = 0
    modes = (False, True) if args.trace else (False,)
    began = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        tracing = modes[(len(plain) + len(traced)) % len(modes)]
        try:
            if tracing:
                registry.reset()
                with telemetry.enabled(trace=False, metrics=True):
                    out = workloads.run_pass(workload, inputs, opts, scratch, sampler,
                                             recorder)
                traced.append((out, recorder.take(), dict(registry.counters)))
            else:
                out = workloads.run_pass(workload, inputs, opts, scratch, sampler)
                plain.append(out)
            check = workloads.check_pass(out, opts, args.seed, full=not checks)
            out.drop_circuits()
        except Exception:  # noqa: BLE001 - a crashing pass is a counted failure
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        checks.append(check)
        digests.add(check.output_digest)
        attempted += check.attempted
        failed += check.failed
        problems.extend(check.problems)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - began
        if done >= len(modes) and elapsed + (time.perf_counter() - cycle_start) > args.seconds:
            break

    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} different output digests")
        failed += 1
    digest = checks[0].digest if checks and len(digests) == 1 else None
    expected = json.loads((HERE / "expected.json").read_text())
    want = expected.get(workload.name, {}).get(str(args.seed))
    if digest is not None and want is not None and not args.smoke and digest != want:
        problems.append(f"digest {digest} differs from expected.json {want}")
        failed += 1
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    metrics, record = {}, {}
    if plain and traced:
        per_pass = []
        for out, spans, counters in traced:
            pass_metrics, table = _layer_metrics(out, spans, counters)
            per_pass.append(pass_metrics)
        metrics = _median_metrics(per_pass)
        plain_wall = statistics.median(out.wall for out in plain)
        traced_wall = statistics.median(out.wall for out, _, _ in traced)
        metrics["trace.overhead_pct"] = (100 * (traced_wall / plain_wall - 1), "%")
        all_spans = [s for _, spans, _ in traced for s in spans]
        stem = Path(args.out) / f"{workload.name}-seed{args.seed}"
        Path(f"{stem}.trace.json").write_text(json.dumps(layers.chrome_trace(all_spans)))
        # The table of the last traced pass, in measured seconds; ``scale``
        # turns them into the reference seconds of the metrics.
        Path(f"{stem}.layers.json").write_text(json.dumps(
            {"traced_wall_s": traced_wall, "plain_wall_s": plain_wall,
             "scale": traced[-1][0].scale, "layers": table}, indent=1, sort_keys=True))
        record = {"traced_wall_s": traced_wall}
    elif plain and not args.trace:
        metrics = _e2e_metrics(plain, checks[0], setup_s)

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "digest": digest,
        "passes": {"plain": len(plain), "traced": len(traced)}, "result": result,
        "pass_times": [{"wall": o.wall, "raw_wall": o.raw_wall, "scale": o.scale,
                        "issue": o.issue_seconds, "ops": [i.seconds for i in o.issued]}
                       for o in plain],
    })
    path = Path(args.out) / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
