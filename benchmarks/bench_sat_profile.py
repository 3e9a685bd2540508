"""SAT raw-speed profile: where the solver spends its time.

Profiles the per-output miter obligations behind the
``BENCH_cec_incremental`` workload (k2 x 8 sparse fingerprint copies):
every structurally affected output of every copy gives a single-output
miter obligation, solved with SatELite-style preprocessing
(:mod:`repro.sat.preprocess`: bounded variable elimination acting as
cone-of-influence pruning, subsumption/self-subsuming resolution,
failed-literal probing) followed by the CDCL solver (flat watch lists
with a binary-clause tier, recursive learned-clause minimization).  A
mutated copy adds satisfiable obligations, so both polarities run.

The record — every obligation's time and counters, the hardest ones by
time, and an sst-sat-style propagation/analysis/decision/reduction time
breakdown of the hardest solve (``CdclSolver(profile=True)``) — is
written to ``BENCH_sat_profile.json`` at the repository root.

``--smoke`` is the CI-sized verdict check: on c17 and k2 it solves each
obligation twice, preprocessed and raw, on the same solver, and fails
unless the verdicts are identical.

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
from repro.netlist import read_blif  # noqa: E402
from repro.techmap import map_network  # noqa: E402
from repro.hashing import COMMUTATIVE_KINDS  # noqa: E402
from repro.ir import compile_circuit  # noqa: E402
from repro.netlist.circuit import Circuit  # noqa: E402
from repro.sat.cec import _encode_xor2  # noqa: E402
from repro.sat.cnf import Cnf  # noqa: E402
from repro.sat.preprocess import preprocess_for_solve  # noqa: E402
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


def affected_outputs(base: Circuit, copy: Circuit) -> List[str]:
    """Outputs whose cone is structurally touched by the copy's edits.

    Shared canonical hashing over both circuits (the incremental
    session's discharge rule): an output with equal classes is equivalent
    by construction and the session never SAT-solves it, so the profile
    workload is exactly the outputs with differing classes.
    """
    table: Dict[tuple, int] = {}

    def classes(circuit: Circuit) -> Dict[str, int]:
        compiled = compile_circuit(circuit)
        cls: Dict[str, int] = {}
        for name in circuit.inputs:
            cls[name] = table.setdefault(("pi", name), len(table))
        for gate in compiled.gates_in_order():
            ins = tuple(cls[n] for n in gate.inputs)
            if gate.kind in COMMUTATIVE_KINDS:
                ins = tuple(sorted(ins))
            cls[gate.name] = table.setdefault((gate.kind, ins), len(table))
        return {net: cls[net] for net in circuit.outputs}

    base_cls = classes(base)
    copy_cls = classes(copy)
    return [net for net in base.outputs if base_cls[net] != copy_cls[net]]


def encode_obligations(
    base: Circuit, copy: Circuit, outputs: Sequence[str]
) -> Tuple[Cnf, List[int], List[Tuple[str, int]]]:
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
    pis = [encoding.variable(name) for name in base.inputs]
    return cnf, pis, obligations


def solve(
    cnf: Cnf, diff: int, frozen: Sequence[int]
) -> Tuple[str, float, Dict[str, float], Dict[str, float]]:
    """Preprocess + solve; returns (verdict, seconds, pre, solver)."""
    start = time.perf_counter()
    pre = preprocess_for_solve(cnf, assumptions=[diff], frozen=frozen)
    if pre.status is False:
        seconds = time.perf_counter() - start
        return "unsat", seconds, pre.stats.as_dict(), {}
    result = CdclSolver(pre.cnf).solve()
    seconds = time.perf_counter() - start
    return (
        result.status.value,
        seconds,
        pre.stats.as_dict(),
        result.stats.as_dict(),
    )


def solve_raw(cnf: Cnf, diff: int) -> Tuple[str, float]:
    """The raw miter on a fresh solver, no preprocessing."""
    start = time.perf_counter()
    result = CdclSolver(cnf).solve(assumptions=[diff])
    return result.status.value, time.perf_counter() - start


def profile_breakdown(cnf: Cnf, diff: int, frozen: Sequence[int]) -> Dict[str, float]:
    """Re-solve one obligation with phase timers on (sst-sat style)."""
    pre = preprocess_for_solve(cnf, assumptions=[diff], frozen=frozen)
    breakdown: Dict[str, float] = {"preprocess_seconds": pre.stats.seconds}
    if pre.status is False:
        breakdown["decided_by"] = "preprocess"
        return breakdown
    result = CdclSolver(pre.cnf, profile=True).solve()
    stats = result.stats
    accounted = (
        stats.propagate_seconds
        + stats.analyze_seconds
        + stats.decide_seconds
        + stats.reduce_seconds
    )
    breakdown.update(
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
    return breakdown


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
    """Preprocessed solve of every affected per-output obligation."""
    rows: List[dict] = []
    for label, copy in pairs:
        outputs = affected_outputs(base, copy)
        if max_per_pair is not None:
            outputs = outputs[:max_per_pair]
        if not outputs:
            continue
        cnf, pis, obligations = encode_obligations(base, copy, outputs)
        for net, diff in obligations:
            verdict, seconds, pre_stats, solver_stats = solve(cnf, diff, pis)
            rows.append(
                {
                    "pair": label,
                    "output": net,
                    "diff_var": diff,
                    "verdict": verdict,
                    "seconds": seconds,
                    "preprocess": {
                        key: pre_stats[key]
                        for key in (
                            "eliminated_vars",
                            "subsumed_clauses",
                            "strengthened_literals",
                            "failed_literals",
                            "clauses_in",
                            "clauses_out",
                            "seconds",
                        )
                    },
                    "solver": solver_stats,
                    "_cnf": cnf,
                    "_pis": pis,
                }
            )
            if progress:
                print(
                    f"  {label}/{net}: {verdict} in {seconds:.2f}s "
                    f"(elim {pre_stats['eliminated_vars']:.0f} vars)",
                    flush=True,
                )
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
        profile_breakdown(hardest[0]["_cnf"], hardest[0]["diff_var"], hardest[0]["_pis"])
        if hardest
        else {}
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
    """CI-sized cross-check on c17 and k2, verdict identity enforced.

    Every c17 obligation (a mutant's, so both polarities occur) and up
    to six k2 obligations of one fingerprint copy are solved
    preprocessed; the c17 obligations and the two cheapest k2 ones are
    solved raw too, which keeps a 1,000-gate design within CI time.
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
    k2_rows.sort(key=lambda r: r["seconds"])
    mismatches = []
    for row in c17_rows + k2_rows[:2]:
        row["raw_verdict"], row["raw_seconds"] = solve_raw(row["_cnf"], row["diff_var"])
        if row["raw_verdict"] != row["verdict"]:
            mismatches.append(row)
    if mismatches:
        raise AssertionError(
            "smoke verdict mismatch: "
            + ", ".join(
                f"{r['pair']}/{r['output']} raw={r['raw_verdict']} "
                f"preprocessed={r['verdict']}"
                for r in mismatches
            )
        )

    hardest = max(k2_rows, key=lambda r: r["seconds"], default=None)
    breakdown = (
        profile_breakdown(hardest["_cnf"], hardest["diff_var"], hardest["_pis"])
        if hardest
        else {}
    )
    return {
        "bench": "sat_profile_smoke",
        "python": platform.python_version(),
        "verdicts_match": True,
        "c17_obligations": [public(r) for r in c17_rows],
        "k2_obligations": [public(r) for r in k2_rows],
        "breakdown_hardest": breakdown,
    }


def test_sat_profile_smoke():
    """CI-sized identity check of preprocessed vs raw solving."""
    record = run_smoke()
    assert record["verdicts_match"]
    assert any(r["verdict"] == "sat" for r in record["c17_obligations"])
    assert all("raw_verdict" in r for r in record["c17_obligations"])


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
            f"  preprocess {breakdown['preprocess_seconds']:8.2f}s  "
            f"(restarts {breakdown['restarts']}, "
            f"conflicts {breakdown['conflicts']}, "
            f"minimized {breakdown['minimized_literals']} lits)"
        )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized identity check on c17 + k2; writes "
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
