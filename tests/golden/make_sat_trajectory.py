"""Record the SAT trajectory pin: CNF-level solver call logs and outcomes.

Every scenario is a log of the calls one :class:`CdclSolver` received:
its initial CNF, then ``new_var`` / ``add_clause`` /
``solve(assumptions, Budget(max_conflicts=N))`` in order.  Each log is
replayed under every pinned :class:`SolverConfig`, and the status, every
integer :class:`SolverStats` counter and a digest of the model after each
solve are written next to it.  ``tests/test_sat_trajectory.py`` replays
the logs and requires the same outcomes, so a change to the solver's
inner loop must search exactly as the solver that wrote the pin did —
same propagations, conflicts, decisions, learned clauses and models.

The logs are CNF-level on purpose: once recorded they no longer depend on
techmap, the Tseitin encoder, the preprocessor or the Python version.

Scenarios: the c17 and C432 full-embedding scratch miters (raw and
preprocessed, as :func:`repro.sat.cec.check` builds them); the same C432
miters against a known-bad copy (one output inverted), so SAT models are
pinned too; the first 8 copies of a C432
:class:`~repro.sat.incremental.IncrementalCecSession` issued as the batch
flow issues them; and many assumption solves on one random 3-SAT solver,
long enough to reach learned-clause reduction and an activity rescale.

Regenerate only when a change is *meant* to alter the search (see the
raw-speed section of ``docs/ARCHITECTURE.md``), from the repository root::

    PYTHONPATH=src python tests/golden/make_sat_trajectory.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Dict, List, Optional, Sequence

from repro.bench.data import data_path
from repro.bench.suite import build_benchmark
from repro.budget import Budget
from repro.fingerprint import FingerprintCodec, embed, find_locations, full_assignment
from repro.flows.batch import select_values
from repro.netlist import read_blif
from repro.sat import incremental
from repro.sat.cec import build_miter
from repro.sat.cnf import Cnf
from repro.sat.portfolio import PORTFOLIO_CONFIGS
from repro.sat.preprocess import preprocess
from repro.sat.solver import LEGACY_CONFIG, CdclSolver, SolverConfig, SolverStats
from repro.techmap import map_network

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sat_trajectory.json")

#: Integer counters compared exactly (the ``*_seconds`` timers are not).
COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "learned",
    "restarts",
    "max_decision_level",
    "watch_visits",
    "learned_deleted",
    "minimized_literals",
)

#: The scratch miters' conflict budget (the paper-flow benchmark's).
SCRATCH_CONFLICTS = 20_000
#: The session's per-copy conflict budget (the copy-issue benchmark's).
SESSION_CONFLICTS = 5_000
SESSION_COPIES = 8
#: Random 3-SAT: variables, clauses, solves, assumptions per solve, budget.
RANDOM_SHAPE = (110, 450, 30, 3, 300)


def pinned_configs() -> List[SolverConfig]:
    """Default, legacy and the portfolio lineup, each configuration once."""
    configs: Dict[str, SolverConfig] = {}
    for config in (SolverConfig(), LEGACY_CONFIG) + tuple(PORTFOLIO_CONFIGS):
        configs.setdefault(config.key(), config)
    return list(configs.values())


def model_digest(model: Optional[Dict[int, bool]]) -> Optional[str]:
    if model is None:
        return None
    true_vars = ",".join(str(v) for v in sorted(model) if model[v])
    return hashlib.sha256(true_vars.encode()).hexdigest()[:16]


def counters(stats: SolverStats) -> Dict[str, int]:
    return {name: int(getattr(stats, name)) for name in COUNTERS}


def replay(log: Dict[str, object], config: SolverConfig) -> List[list]:
    """Run one call log on a fresh solver; ``[status, counters, model]`` per solve."""
    cnf = Cnf()
    for _ in range(log["n_vars"]):
        cnf.new_var()
    for clause in log["clauses"]:
        cnf.add_clause(clause)
    solver = CdclSolver(cnf, config=config)
    outcomes = []
    for call in log["calls"]:
        op = call[0]
        if op == "new_var":
            for _ in range(call[1]):
                solver.new_var()
        elif op == "add_clause":
            solver.add_clause(call[1])
        else:
            result = solver.solve(call[1], budget=Budget(max_conflicts=call[2]))
            outcomes.append(
                [result.status.value, counters(result.stats), model_digest(result.model)]
            )
    return outcomes


# ---------------------------------------------------------------------- #
# recording
# ---------------------------------------------------------------------- #


def _log_of_cnf(cnf: Cnf) -> Dict[str, object]:
    return {
        "n_vars": cnf.n_vars,
        "clauses": [list(clause) for clause in cnf.clauses],
        "calls": [],
    }


class _RecordingSolver(CdclSolver):
    """A solver that appends every incremental call it receives to a log."""

    logs: List[Dict[str, object]] = []

    def __init__(self, cnf: Optional[Cnf] = None, restart_base=None, config=None):
        self._log = _log_of_cnf(cnf if cnf is not None else Cnf())
        self.logs.append(self._log)
        super().__init__(cnf, restart_base, config)

    def new_var(self) -> int:
        calls = self._log["calls"]
        if calls and calls[-1][0] == "new_var":
            calls[-1][1] += 1
        else:
            calls.append(["new_var", 1])
        return super().new_var()

    def add_clause(self, literals: Sequence[int]) -> bool:
        self._log["calls"].append(["add_clause", list(literals)])
        return super().add_clause(literals)

    def solve(self, assumptions=(), budget=None, interrupt=None):
        max_conflicts = budget.max_conflicts if budget is not None else None
        if max_conflicts is None:
            raise ValueError("pinned solves need a conflict budget")
        self._log["calls"].append(["solve", list(assumptions), max_conflicts])
        return super().solve(assumptions, Budget(max_conflicts=max_conflicts), interrupt)


def _c17():
    return map_network(read_blif(data_path("c17.blif")))


def complement_output(circuit, output: str):
    """A copy of ``circuit`` whose primary output ``output`` is inverted."""
    mutant = circuit.clone(f"{circuit.name}_bad")
    driver = mutant.remove_gate(output)
    inner = f"{output}_pin_pre"
    mutant.add_gate(inner, driver.kind, driver.inputs, cell=driver.cell)
    mutant.add_gate(output, "INV", [inner])
    return mutant


def scratch_logs(name: str, base, bad: bool = False) -> Dict[str, Dict[str, object]]:
    """The raw and preprocessed full-embedding miters, as ``check`` builds them."""
    catalog = find_locations(base)
    copy = embed(base, catalog, full_assignment(base, catalog)).circuit
    if bad:
        name += "-bad"
        copy = complement_output(copy, copy.outputs[0])
    encoding = build_miter(base, copy)
    frozen = [encoding.var_of[net] for net in base.inputs]
    pre = preprocess(encoding.cnf, frozen=frozen)
    logs = {}
    for label, cnf in (("raw", encoding.cnf), ("preprocessed", pre.cnf)):
        log = _log_of_cnf(cnf)
        log["calls"].append(["solve", [], SCRATCH_CONFLICTS])
        logs[f"{name}-miter-{label}"] = log
    return logs


def random_log(seed: int = 7) -> Dict[str, object]:
    """One persistent solver answering many assumption queries on random 3-SAT."""
    n_vars, n_clauses, n_solves, width, conflicts = RANDOM_SHAPE
    rng = random.Random(seed)

    def literals(count: int) -> List[int]:
        return [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n_vars + 1), count)]

    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for _ in range(n_clauses):
        cnf.add_clause(literals(3))
    log = _log_of_cnf(cnf)
    for _ in range(n_solves):
        log["calls"].append(["solve", literals(width), conflicts])
    return log


def session_log(base) -> Dict[str, object]:
    """The persistent solver of a session verifying the batch flow's first copies."""
    catalog = find_locations(base)
    codec = FingerprintCodec(catalog)
    values = select_values(codec.combinations, 40, seed=0)[:SESSION_COPIES]
    _RecordingSolver.logs = []
    original = incremental.CdclSolver
    incremental.CdclSolver = _RecordingSolver
    try:
        session = incremental.IncrementalCecSession(base)
        for value in values:
            copy = embed(base, catalog, codec.encode(value), name=f"{base.name}_v{value}")
            session.verify(copy.circuit, budget=Budget(max_conflicts=SESSION_CONFLICTS))
    finally:
        incremental.CdclSolver = original
    (log,) = _RecordingSolver.logs
    return log


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    c432 = build_benchmark("C432")
    logs: Dict[str, Dict[str, object]] = {}
    logs.update(scratch_logs("c17", _c17()))
    logs.update(scratch_logs("C432", c432))
    logs.update(scratch_logs("C432", c432, bad=True))
    logs[f"C432-session-{SESSION_COPIES}"] = session_log(c432)
    logs["random-3sat"] = random_log()
    configs = pinned_configs()
    scenarios = {}
    for name, log in logs.items():
        scenarios[name] = dict(
            log,
            outcomes={config.key(): replay(log, config) for config in configs},
        )
        print(name, {key: len(o) for key, o in scenarios[name]["outcomes"].items()})
    with open(out, "w") as handle:
        json.dump({"schema": 1, "counters": list(COUNTERS), "scenarios": scenarios},
                  handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
