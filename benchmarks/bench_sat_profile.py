"""SAT raw-speed profile: preprocessing + tuned solver vs the legacy core.

Benchmarks the per-output miter obligations behind the
``BENCH_cec_incremental`` workload (k2 x 8 sparse fingerprint copies):
for every structurally affected output of every copy, a single-output
miter obligation is solved

* with the **new pipeline** — SatELite-style preprocessing
  (:mod:`repro.sat.preprocess`: bounded variable elimination acting as
  cone-of-influence pruning, subsumption/self-subsuming resolution,
  failed-literal probing) followed by the tuned CDCL core
  (:class:`~repro.sat.solver.SolverConfig` defaults: flat watch lists
  with a binary-clause tier, recursive learned-clause minimization), and
* with the **legacy solver** (:data:`~repro.sat.solver.LEGACY_CONFIG`,
  no preprocessing) on the *hardest* obligations, ranked by new-pipeline
  time — the baselines there take minutes, which is exactly why they are
  the acceptance target.

Verdicts must be bit-identical wherever both engines run (a mutated copy
adds satisfiable obligations so both polarities are exercised).  The
record — including an sst-sat-style propagation/decision/conflict/restart
time breakdown of the hardest solve — is written to
``BENCH_sat_profile.json`` at the repository root.

Acceptance gate: >= 3x total speedup on the hardest obligations, with
identical verdicts everywhere.

Standalone usage::

    python benchmarks/bench_sat_profile.py           # full record + gate
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
from repro.sat.solver import LEGACY_CONFIG, CdclSolver, SolverConfig  # noqa: E402
from repro.sat.tseitin import CircuitEncoding, encode_circuit  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from bench_cec import make_sparse_copies  # noqa: E402

DESIGN = "k2"
N_COPIES = 8
N_MODS_PER_COPY = 3
SEED = 2015
#: Obligations baselined with the legacy solver, ranked hardest-first by
#: new-pipeline time.  The legacy side takes minutes apiece up there.
HARDEST_N = 3
MIN_HARD_SPEEDUP = 3.0

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


def solve_new(
    cnf: Cnf, diff: int, frozen: Sequence[int]
) -> Tuple[str, float, Dict[str, float], Dict[str, float]]:
    """Preprocess + tuned solve; returns (verdict, seconds, pre, solver)."""
    start = time.perf_counter()
    pre = preprocess_for_solve(cnf, assumptions=[diff], frozen=frozen)
    if pre.status is False:
        seconds = time.perf_counter() - start
        return "unsat", seconds, pre.stats.as_dict(), {}
    result = CdclSolver(pre.cnf, config=SolverConfig()).solve()
    seconds = time.perf_counter() - start
    return (
        result.status.value,
        seconds,
        pre.stats.as_dict(),
        result.stats.as_dict(),
    )


def solve_legacy(cnf: Cnf, diff: int) -> Tuple[str, float, Dict[str, float]]:
    """The pre-tuning pipeline: raw miter, legacy config, fresh solver."""
    start = time.perf_counter()
    result = CdclSolver(cnf, config=LEGACY_CONFIG).solve(assumptions=[diff])
    seconds = time.perf_counter() - start
    return result.status.value, seconds, result.stats.as_dict()


def profile_breakdown(cnf: Cnf, diff: int, frozen: Sequence[int]) -> Dict[str, float]:
    """Re-solve one obligation with phase timers on (sst-sat style)."""
    pre = preprocess_for_solve(cnf, assumptions=[diff], frozen=frozen)
    breakdown: Dict[str, float] = {"preprocess_seconds": pre.stats.seconds}
    if pre.status is False:
        breakdown["decided_by"] = "preprocess"
        return breakdown
    result = CdclSolver(pre.cnf, config=SolverConfig(profile=True)).solve()
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
    """New-pipeline solve of every affected per-output obligation."""
    rows: List[dict] = []
    for label, copy in pairs:
        outputs = affected_outputs(base, copy)
        if max_per_pair is not None:
            outputs = outputs[:max_per_pair]
        if not outputs:
            continue
        cnf, pis, obligations = encode_obligations(base, copy, outputs)
        for net, diff in obligations:
            verdict, seconds, pre_stats, solver_stats = solve_new(cnf, diff, pis)
            rows.append(
                {
                    "pair": label,
                    "output": net,
                    "diff_var": diff,
                    "new_verdict": verdict,
                    "new_seconds": seconds,
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
    hardest_n: int = HARDEST_N,
    progress: bool = False,
) -> dict:
    """The full record: new pipeline everywhere, legacy on the hardest."""
    rows = collect_obligations(base, copies, progress=progress)
    mutant_rows: List[dict] = []
    if mutant is not None:
        mutant_rows = collect_obligations(
            base, [("mutant", mutant)], progress=progress
        )

    # Legacy baselines: the hardest equivalent-copy obligations by
    # new-pipeline time, plus every satisfiable mutant obligation (cheap,
    # and they pin verdict identity on the SAT side).
    rows.sort(key=lambda r: r["new_seconds"], reverse=True)
    hardest = rows[:hardest_n]
    baseline_rows = hardest + [r for r in mutant_rows if r["new_verdict"] == "sat"]
    mismatches = []
    for row in baseline_rows:
        verdict, seconds, stats = solve_legacy(row["_cnf"], row["diff_var"])
        row["legacy_verdict"] = verdict
        row["legacy_seconds"] = seconds
        row["legacy_solver"] = stats
        if progress:
            print(
                f"  legacy {row['pair']}/{row['output']}: {verdict} "
                f"in {seconds:.2f}s",
                flush=True,
            )
        if verdict != row["new_verdict"]:
            mismatches.append(row)
    if mismatches:
        raise AssertionError(
            "verdict mismatch between legacy and new pipeline: "
            + ", ".join(
                f"{r['pair']}/{r['output']} legacy={r['legacy_verdict']} "
                f"new={r['new_verdict']}"
                for r in mismatches
            )
        )

    legacy_total = sum(r["legacy_seconds"] for r in hardest)
    new_total = sum(r["new_seconds"] for r in hardest)
    breakdown = (
        profile_breakdown(hardest[0]["_cnf"], hardest[0]["diff_var"], hardest[0]["_pis"])
        if hardest
        else {}
    )

    def public(row: dict) -> dict:
        return {k: v for k, v in row.items() if not k.startswith("_")}

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
        "hardest_n": len(hardest),
        "hardest": [public(r) for r in hardest],
        "hardest_legacy_seconds": legacy_total,
        "hardest_new_seconds": new_total,
        "hard_speedup": (legacy_total / new_total) if new_total else 0.0,
        "verdicts_match": True,
        "breakdown_hardest": breakdown,
        "obligations": [public(r) for r in rows],
        "mutant_obligations": [public(r) for r in mutant_rows],
        "new_seconds_total": sum(
            r["new_seconds"] for r in rows + mutant_rows
        ),
    }


def run_full(progress: bool = True, hardest_n: int = HARDEST_N) -> dict:
    base = build_benchmark(DESIGN)
    catalog = find_locations(base)
    copies = [
        (f"copy{i}", circuit)
        for i, (_, circuit) in enumerate(
            make_sparse_copies(base, catalog, N_COPIES, N_MODS_PER_COPY, seed=SEED)
        )
    ]
    record = collect_profile(
        base, copies, make_mutant(base), hardest_n=hardest_n, progress=progress
    )
    record.update(
        n_mods_per_copy=N_MODS_PER_COPY, seed=SEED, gate=MIN_HARD_SPEEDUP
    )
    return record


def run_smoke(progress: bool = False) -> dict:
    """CI-sized cross-check on c17 and k2, verdict identity enforced.

    c17 obligations (equivalence + mutant) all run through both engines;
    k2 contributes two obligations from one fingerprint copy so a
    1,000-gate design is exercised without minute-long legacy baselines.
    The 3x gate is not evaluated at this scale — identity is.
    """
    c17 = map_network(read_blif(data_path("c17.blif")))
    c17_mutant = make_mutant(c17)
    c17_rows = collect_obligations(
        c17, [("c17-mutant", c17_mutant)], progress=progress
    )
    mismatches = []
    for row in c17_rows:
        verdict, seconds, _ = solve_legacy(row["_cnf"], row["diff_var"])
        row["legacy_verdict"] = verdict
        row["legacy_seconds"] = seconds
        if verdict != row["new_verdict"]:
            mismatches.append(row)

    k2 = build_benchmark(DESIGN)
    catalog = find_locations(k2)
    copies = [
        ("k2-copy0", make_sparse_copies(k2, catalog, 1, 1, seed=7)[0][1])
    ]
    k2_rows = collect_obligations(k2, copies, max_per_pair=6, progress=progress)
    k2_rows.sort(key=lambda r: r["new_seconds"])
    for row in k2_rows[:2]:
        verdict, seconds, _ = solve_legacy(row["_cnf"], row["diff_var"])
        row["legacy_verdict"] = verdict
        row["legacy_seconds"] = seconds
        if verdict != row["new_verdict"]:
            mismatches.append(row)
    if mismatches:
        raise AssertionError(
            "smoke verdict mismatch: "
            + ", ".join(
                f"{r['pair']}/{r['output']} legacy={r['legacy_verdict']} "
                f"new={r['new_verdict']}"
                for r in mismatches
            )
        )

    def public(row: dict) -> dict:
        return {k: v for k, v in row.items() if not k.startswith("_")}

    hardest = max(k2_rows, key=lambda r: r["new_seconds"], default=None)
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
    """CI-sized identity check of legacy vs preprocessed+tuned solving."""
    record = run_smoke()
    assert record["verdicts_match"]
    assert any(r["new_verdict"] == "sat" for r in record["c17_obligations"])
    assert all("legacy_verdict" in r for r in record["c17_obligations"])


def _print_record(record: dict) -> None:
    if "hardest" in record:
        print(
            f"{record['design']}: {record['n_obligations']} obligations, "
            f"hardest {record['hardest_n']} baselined"
        )
        for row in record["hardest"]:
            print(
                f"  {row['pair']}/{row['output']}: legacy "
                f"{row['legacy_seconds']:8.2f}s -> new {row['new_seconds']:7.2f}s "
                f"[{row['new_verdict']}]"
            )
        print(
            f"hardest total: legacy {record['hardest_legacy_seconds']:.2f}s "
            f"new {record['hardest_new_seconds']:.2f}s "
            f"speedup {record['hard_speedup']:.2f}x"
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
    parser.add_argument(
        "--hardest", type=int, default=HARDEST_N, metavar="N",
        help=f"legacy-baselined hardest obligations (default: {HARDEST_N})",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        record = run_smoke(progress=True)
        Path(SMOKE_RECORD).write_text(json.dumps(record, indent=2) + "\n")
        _print_record(record)
        print(f"wrote {SMOKE_RECORD}")
        print("smoke OK")
        return
    record = run_full(progress=True, hardest_n=args.hardest)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD_PATH}")
    _print_record(record)
    if record["hard_speedup"] < MIN_HARD_SPEEDUP:
        raise SystemExit(
            f"hard-obligation speedup {record['hard_speedup']:.2f}x below "
            f"the {MIN_HARD_SPEEDUP}x gate"
        )


if __name__ == "__main__":
    main()
