"""SAT raw-speed profile: where the solver spends its time.

Profiles the per-output miter obligations behind the
``BENCH_cec_incremental`` workload (k2 x 8 sparse fingerprint copies):
every structurally affected output of every copy gives a single-output
miter obligation, solved raw (no CNF rewriting) on a fresh CDCL solver
(flat watch lists with a binary-clause tier, recursive learned-clause
minimization) under the assumption that its difference detector fires.
A mutated copy adds satisfiable obligations, so both polarities run.

The record — every obligation's time and counters, the hardest ones by
time, and an sst-sat-style propagation/analysis/decision/reduction time
breakdown of the hardest solve (``CdclSolver(profile=True)``) — is
written to ``BENCH_sat_profile.json`` at the repository root.

Each pair's obligation verdicts must agree with the CEC engine's verdict
on the pair (:func:`repro.sat.sat_equivalent`): some obligation is SAT
exactly when the pair is NOT_EQUIVALENT.  ``--smoke`` is the CI-sized
version of that check, on a c17 mutant and one k2 copy.

Standalone usage::

    python benchmarks/bench_sat_profile.py           # full record
    python benchmarks/bench_sat_profile.py --smoke   # CI-sized c17 + k2
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import build_benchmark  # noqa: E402
from repro.bench.data import data_path  # noqa: E402
from repro.fingerprint import find_locations  # noqa: E402
from repro.hashing import gate_key  # noqa: E402
from repro.netlist import read_blif  # noqa: E402
from repro.techmap import map_network  # noqa: E402
from repro.netlist.circuit import Circuit  # noqa: E402
from repro.sat import sat_equivalent  # noqa: E402
from repro.sat.cec import CecVerdict, _encode_xor2  # noqa: E402
from repro.sat.cnf import Cnf  # noqa: E402
from repro.sat.solver import CdclSolver  # noqa: E402
from repro.sat.tseitin import CircuitEncoding, encode_circuit  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from bench_cec import make_sparse_copies  # noqa: E402

DESIGN = "k2"
N_COPIES = 8
N_MODS_PER_COPY = 3
SEED = 2015
#: Obligations listed as the hardest, ranked by solve time.
HARDEST_N = 3

RECORD_PATH = REPO_ROOT / "BENCH_sat_profile.json"
SMOKE_RECORD = "BENCH_sat_profile_smoke.json"


def _differing_outputs(base: Circuit, copy: Circuit) -> List[str]:
    """Outputs of ``base`` whose structural classes differ in ``copy``.

    Both circuits intern into one table keyed by :func:`gate_key` over
    fanin classes (primary inputs by name), the strash convention of the
    CEC session, so an output not listed is the same gate structure on
    both sides and the session never SAT-solves it.
    """
    table: Dict[tuple, int] = {}

    def classes(circuit: Circuit) -> Dict[str, int]:
        cls = {net: table.setdefault(("pi", net), len(table)) for net in circuit.inputs}
        for gate in circuit.topological_order():
            key = gate_key(gate.kind, [cls[net] for net in gate.inputs])
            cls[gate.name] = table.setdefault(key, len(table))
        return cls

    base_cls, copy_cls = classes(base), classes(copy)
    return [net for net in base.outputs if base_cls[net] != copy_cls[net]]


def encode_obligations(
    base: Circuit, copy: Circuit, outputs: Sequence[str]
) -> Tuple[Cnf, List[Tuple[str, int]]]:
    """One two-sided encoding; a diff variable per tested output.

    No OR-of-differences clause is asserted — each obligation is solved
    under its own ``diff`` assumption, mirroring the per-output solves of
    the incremental session.
    """
    encoding = CircuitEncoding()
    shared = base.inputs
    encode_circuit(base, encoding, prefix="L::", shared_nets=shared)
    encode_circuit(copy, encoding, prefix="R::", shared_nets=shared)
    cnf = encoding.cnf
    obligations: List[Tuple[str, int]] = []
    for net in outputs:
        left = encoding.variable(net if net in shared else "L::" + net)
        right = encoding.variable(net if net in shared else "R::" + net)
        if left == right:
            continue
        diff = cnf.new_var()
        _encode_xor2(cnf, diff, left, right)
        obligations.append((net, diff))
    return cnf, obligations


def solve(cnf: Cnf, diff: int) -> Tuple[str, float, Dict[str, float]]:
    """One raw obligation on a fresh solver; returns (verdict, seconds, solver)."""
    start = time.perf_counter()
    result = CdclSolver(cnf).solve(assumptions=[diff])
    seconds = time.perf_counter() - start
    return result.status.value, seconds, result.stats.as_dict()


def profile_breakdown(cnf: Cnf, diff: int) -> Dict[str, float]:
    """Re-solve one obligation with phase timers on (sst-sat style)."""
    result = CdclSolver(cnf, profile=True).solve(assumptions=[diff])
    stats = result.stats
    accounted = (
        stats.propagate_seconds
        + stats.analyze_seconds
        + stats.decide_seconds
        + stats.reduce_seconds
    )
    return dict(
        verdict=result.status.value,
        solve_seconds=stats.solve_seconds,
        propagate_seconds=stats.propagate_seconds,
        analyze_seconds=stats.analyze_seconds,
        decide_seconds=stats.decide_seconds,
        reduce_seconds=stats.reduce_seconds,
        other_seconds=max(0.0, stats.solve_seconds - accounted),
        propagations=stats.propagations,
        decisions=stats.decisions,
        conflicts=stats.conflicts,
        restarts=stats.restarts,
        minimized_literals=stats.minimized_literals,
        watch_visits=stats.watch_visits,
        propagations_per_sec=stats.propagations_per_sec,
    )


def make_mutant(base: Circuit) -> Circuit:
    """A functionally broken copy, so SAT verdicts are exercised too."""
    flip = {"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR"}
    mutant = base.clone(f"{base.name}_mutant")
    victim = next(g for g in mutant.topological_order() if g.kind in flip)
    mutant.replace_gate(victim.name, flip[victim.kind], list(victim.inputs))
    return mutant


def collect_obligations(
    base: Circuit,
    pairs: Sequence[Tuple[str, Circuit]],
    max_per_pair: Optional[int] = None,
    progress: bool = False,
) -> List[dict]:
    """Raw solve of every affected per-output obligation.

    Each pair's verdicts are checked against :func:`sat_equivalent`: some
    obligation is SAT exactly when the pair is NOT_EQUIVALENT.  With
    ``max_per_pair`` only the first obligations are solved, so a pair
    whose only SAT obligation falls outside them would fail the check.
    """
    rows: List[dict] = []
    mismatches = []
    for label, copy in pairs:
        outputs = _differing_outputs(base, copy)
        if max_per_pair is not None:
            outputs = outputs[:max_per_pair]
        if not outputs:
            continue
        cnf, obligations = encode_obligations(base, copy, outputs)
        verdicts = []
        for net, diff in obligations:
            verdict, seconds, solver_stats = solve(cnf, diff)
            verdicts.append(verdict)
            rows.append(
                {
                    "pair": label,
                    "output": net,
                    "diff_var": diff,
                    "verdict": verdict,
                    "seconds": seconds,
                    "solver": solver_stats,
                    "_cnf": cnf,
                }
            )
            if progress:
                print(f"  {label}/{net}: {verdict} in {seconds:.2f}s", flush=True)
        engine = sat_equivalent(base, copy).verdict
        if ("sat" in verdicts) != (engine is CecVerdict.NOT_EQUIVALENT):
            mismatches.append(f"{label}: obligations {verdicts}, engine {engine.value}")
    if mismatches:
        raise AssertionError("verdict mismatch: " + "; ".join(mismatches))
    return rows


def collect_profile(
    base: Circuit,
    copies: Sequence[Tuple[str, Circuit]],
    mutant: Optional[Circuit],
    progress: bool = False,
) -> dict:
    """The full record: every obligation, the hardest, and a breakdown."""
    rows = collect_obligations(base, copies, progress=progress)
    mutant_rows: List[dict] = []
    if mutant is not None:
        mutant_rows = collect_obligations(
            base, [("mutant", mutant)], progress=progress
        )
    hardest = sorted(rows, key=lambda r: r["seconds"], reverse=True)[:HARDEST_N]
    breakdown = (
        profile_breakdown(hardest[0]["_cnf"], hardest[0]["diff_var"]) if hardest else {}
    )
    return {
        "bench": "sat_profile",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "design": base.name,
        "gates": base.n_gates,
        "inputs": len(base.inputs),
        "outputs": len(base.outputs),
        "n_copies": len(copies),
        "n_obligations": len(rows) + len(mutant_rows),
        "hardest": [public(r) for r in hardest],
        "hardest_seconds": sum(r["seconds"] for r in hardest),
        "breakdown_hardest": breakdown,
        "obligations": [public(r) for r in rows],
        "mutant_obligations": [public(r) for r in mutant_rows],
        "seconds_total": sum(r["seconds"] for r in rows + mutant_rows),
    }


def public(row: dict) -> dict:
    return {k: v for k, v in row.items() if not k.startswith("_")}


def run_full(progress: bool = True) -> dict:
    base = build_benchmark(DESIGN)
    catalog = find_locations(base)
    copies = [
        (f"copy{i}", circuit)
        for i, (_, circuit) in enumerate(
            make_sparse_copies(base, catalog, N_COPIES, N_MODS_PER_COPY, seed=SEED)
        )
    ]
    record = collect_profile(base, copies, make_mutant(base), progress=progress)
    record.update(n_mods_per_copy=N_MODS_PER_COPY, seed=SEED)
    return record


def run_smoke(progress: bool = False) -> dict:
    """CI-sized cross-check on c17 and k2, verdict agreement enforced.

    Every c17 obligation (a mutant's, so both polarities occur) and the
    first six k2 obligations of one fingerprint copy are solved raw,
    which keeps a 1,000-gate design within CI time; each pair's
    verdicts must agree with :func:`sat_equivalent`.
    """
    c17 = map_network(read_blif(data_path("c17.blif")))
    c17_rows = collect_obligations(
        c17, [("c17-mutant", make_mutant(c17))], progress=progress
    )
    k2 = build_benchmark(DESIGN)
    catalog = find_locations(k2)
    copies = [
        ("k2-copy0", make_sparse_copies(k2, catalog, 1, 1, seed=7)[0][1])
    ]
    k2_rows = collect_obligations(k2, copies, max_per_pair=6, progress=progress)
    hardest = max(k2_rows, key=lambda r: r["seconds"], default=None)
    breakdown = profile_breakdown(hardest["_cnf"], hardest["diff_var"]) if hardest else {}
    return {
        "bench": "sat_profile_smoke",
        "python": platform.python_version(),
        "verdicts_match": True,
        "c17_obligations": [public(r) for r in c17_rows],
        "k2_obligations": [public(r) for r in k2_rows],
        "breakdown_hardest": breakdown,
    }


def test_sat_profile_smoke():
    """CI-sized agreement check of raw obligations with the CEC engine."""
    record = run_smoke()
    assert record["verdicts_match"]
    assert any(r["verdict"] == "sat" for r in record["c17_obligations"])
    assert all(r["verdict"] == "unsat" for r in record["k2_obligations"])


def _print_record(record: dict) -> None:
    if "hardest" in record:
        print(
            f"{record['design']}: {record['n_obligations']} obligations in "
            f"{record['seconds_total']:.2f}s; hardest {len(record['hardest'])}:"
        )
        for row in record["hardest"]:
            print(
                f"  {row['pair']}/{row['output']}: {row['seconds']:7.2f}s "
                f"[{row['verdict']}]"
            )
    breakdown = record.get("breakdown_hardest") or {}
    if "solve_seconds" in breakdown:
        total = breakdown["solve_seconds"]
        print("hardest-solve breakdown:")
        for phase in ("propagate", "analyze", "decide", "reduce", "other"):
            seconds = breakdown[f"{phase}_seconds"]
            share = 100.0 * seconds / total if total else 0.0
            print(f"  {phase:10s} {seconds:8.2f}s {share:5.1f}%")
        print(
            f"  restarts {breakdown['restarts']}, "
            f"conflicts {breakdown['conflicts']}, "
            f"minimized {breakdown['minimized_literals']} lits"
        )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized agreement check on c17 + k2; writes "
        f"{SMOKE_RECORD} to the working directory",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        record = run_smoke(progress=True)
        Path(SMOKE_RECORD).write_text(json.dumps(record, indent=2) + "\n")
        _print_record(record)
        print(f"wrote {SMOKE_RECORD}")
        print("smoke OK")
        return
    record = run_full(progress=True)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD_PATH}")
    _print_record(record)


if __name__ == "__main__":
    main()
