"""A7 — Compiled-IR simulation speedup on the random-logic suite.

Times bit-parallel simulation through the compiled IR (level-batched
numpy kernels, :mod:`repro.ir`) against the pre-IR per-gate Python loop
(dict lookups + string dispatch through ``functions.evaluate``, kept
here verbatim as the reference), on the calibrated random-logic suite
designs.  Also times the cone-restricted observability scan against the
old full-netlist re-walk.

Writes ``BENCH_compiled_ir.json`` at the repository root — the repo's
first accumulated perf record — both when run standalone
(``python benchmarks/bench_compiled_ir.py``) and under pytest.

Acceptance gate: >= 3x simulation speedup on the largest random-logic
design (``des``, 3544 gates).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import build_benchmark  # noqa: E402
from repro.cells import functions  # noqa: E402
from repro.ir import compile_circuit  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.sim.vectors import random_stimulus  # noqa: E402

#: Random-logic suite designs measured, smallest to largest.
DESIGNS = ("vda", "k2", "des")

#: The design the >= 3x acceptance gate applies to.
LARGEST = "des"

MIN_SPEEDUP = 3.0

N_VECTORS = 4096

RECORD_PATH = REPO_ROOT / "BENCH_compiled_ir.json"

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def legacy_run(circuit, stimulus) -> Dict[str, np.ndarray]:
    """The seed simulator loop: one Python iteration per gate."""
    values = {
        name: np.asarray(stimulus[name], dtype=np.uint64)
        for name in circuit.inputs
    }
    width = len(next(iter(values.values()))) if values else 1
    for gate in circuit.topological_order():
        kind = gate.kind
        if kind == "CONST0":
            values[gate.name] = np.zeros(width, dtype=np.uint64)
            continue
        if kind == "CONST1":
            values[gate.name] = np.full(width, _ALL_ONES, dtype=np.uint64)
            continue
        operands = [values[n] for n in gate.inputs]
        values[gate.name] = np.asarray(
            functions.evaluate(kind, operands), dtype=np.uint64
        )
    return values


def legacy_flip_resim(circuit, values, net) -> Dict[str, np.ndarray]:
    """The seed observability inner loop: full topological re-walk."""
    flipped = {net: ~values[net]}
    for gate in circuit.topological_order():
        if gate.name == net or gate.name in flipped:
            continue
        if not any(n in flipped for n in gate.inputs):
            continue
        if gate.kind in ("CONST0", "CONST1"):
            continue
        operands = [flipped.get(n, values[n]) for n in gate.inputs]
        flipped[gate.name] = np.asarray(
            functions.evaluate(gate.kind, operands), dtype=np.uint64
        )
    return flipped


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_simulation(circuit, n_vectors: int = N_VECTORS, repeats: int = 3) -> dict:
    """Legacy-vs-IR simulation timing record for one design."""
    stimulus = random_stimulus(circuit.inputs, n_vectors, seed=7)
    simulator = Simulator(circuit)
    ir_values = simulator.run(stimulus)  # warm: compiles the IR once
    legacy_values = legacy_run(circuit, stimulus)
    for name, words in legacy_values.items():
        if not np.array_equal(ir_values[name], words):
            raise AssertionError(f"{circuit.name}: IR mismatch on net {name!r}")
    legacy_seconds = _best_of(lambda: legacy_run(circuit, stimulus), repeats)
    ir_seconds = _best_of(lambda: simulator.run(stimulus), repeats)
    return {
        "design": circuit.name,
        "gates": circuit.n_gates,
        "inputs": len(circuit.inputs),
        "n_vectors": n_vectors,
        "legacy_seconds": legacy_seconds,
        "ir_seconds": ir_seconds,
        "speedup": legacy_seconds / ir_seconds,
    }


def measure_observability(circuit, n_vectors: int = 1024, n_nets: int = 64) -> dict:
    """Legacy-vs-IR flip-resimulation timing over a sample of nets."""
    stimulus = random_stimulus(circuit.inputs, n_vectors, seed=7)
    simulator = Simulator(circuit)
    values = simulator.run(stimulus)
    compiled = compile_circuit(circuit)
    nets = circuit.gate_names()[:n_nets]

    def ir_scan():
        from repro.sim.observability import _resimulate_with_flip

        for net in nets:
            _resimulate_with_flip(circuit, values, net)

    def legacy_scan():
        for net in nets:
            legacy_flip_resim(circuit, values, net)

    ir_scan()  # warm cone cache to measure the steady-state scan
    legacy_seconds = _best_of(legacy_scan, 2)
    ir_seconds = _best_of(ir_scan, 2)
    mean_cone = float(
        np.mean([len(compiled.fanout_cone(net)) for net in nets])
    )
    return {
        "design": circuit.name,
        "gates": circuit.n_gates,
        "nets_scanned": len(nets),
        "n_vectors": n_vectors,
        "mean_cone_gates": mean_cone,
        "legacy_seconds": legacy_seconds,
        "ir_seconds": ir_seconds,
        "speedup": legacy_seconds / ir_seconds,
    }


def collect() -> dict:
    """Run all measurements and return the perf record."""
    simulation: List[dict] = []
    for name in DESIGNS:
        simulation.append(measure_simulation(build_benchmark(name)))
    observability = [measure_observability(build_benchmark("vda"))]
    return {
        "bench": "compiled_ir",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "n_vectors": N_VECTORS,
        "simulation": simulation,
        "observability": observability,
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n")


def test_compiled_ir_speedup():
    """>= 3x bit-parallel simulation speedup on ``des``; emits the record."""
    record = collect()
    write_record(record)
    by_design = {row["design"]: row for row in record["simulation"]}
    assert by_design[LARGEST]["speedup"] >= MIN_SPEEDUP, by_design[LARGEST]
    # The cone-restricted observability scan must not be slower either.
    assert all(row["speedup"] > 1.0 for row in record["observability"])


def main() -> None:
    record = collect()
    write_record(record)
    print(f"wrote {RECORD_PATH}")
    for row in record["simulation"]:
        print(
            f"sim  {row['design']:<6} {row['gates']:>5} gates  "
            f"legacy {row['legacy_seconds']*1e3:8.2f} ms  "
            f"ir {row['ir_seconds']*1e3:7.2f} ms  "
            f"speedup {row['speedup']:6.2f}x"
        )
    for row in record["observability"]:
        print(
            f"obs  {row['design']:<6} {row['nets_scanned']:>3} nets    "
            f"legacy {row['legacy_seconds']*1e3:8.2f} ms  "
            f"ir {row['ir_seconds']*1e3:7.2f} ms  "
            f"speedup {row['speedup']:6.2f}x"
        )
    largest = next(r for r in record["simulation"] if r["design"] == LARGEST)
    if largest["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup {largest['speedup']:.2f}x below the {MIN_SPEEDUP}x gate"
        )


if __name__ == "__main__":
    main()
