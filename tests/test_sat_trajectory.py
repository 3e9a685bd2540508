"""The SAT trajectory pin: the solver must search exactly as recorded.

``tests/golden/sat_trajectory.json`` holds CNF-level call logs (initial
clauses, then ``new_var`` / ``add_clause`` / budgeted ``solve`` calls)
with the status, every integer :class:`SolverStats` counter and a model
digest after each solve.  A replay that differs in any of them means the
search itself changed, not just its speed.  See
``tests/golden/make_sat_trajectory.py`` for the scenarios and for when
regenerating the pin is legitimate.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench.suite import build_benchmark
from repro.sat.solver import CdclSolver
from repro.sat.tseitin import encode_circuit
from repro.budget import Budget
from repro.fingerprint import FingerprintCodec, embed, find_locations
from repro.flows.batch import select_values
from repro.sat.incremental import IncrementalCecSession
from tests.golden.make_sat_trajectory import (
    CONE_COPY,
    CONFIG_KEY,
    OUT,
    SESSION_CONFLICTS,
    counters,
    log_cnf,
    replay,
    session_logs,
)

with open(OUT) as _handle:
    PIN = json.load(_handle)

SCENARIOS = sorted(PIN["scenarios"])


def test_pin_covers_every_pinned_config():
    """Every scenario holds outcomes for the solver's one configuration."""
    for name in SCENARIOS:
        assert list(PIN["scenarios"][name]["outcomes"]) == [CONFIG_KEY], name


@pytest.mark.parametrize("name", SCENARIOS)
def test_replay_matches_pin(name):
    scenario = PIN["scenarios"][name]
    assert replay(scenario) == scenario["outcomes"][CONFIG_KEY], name


@pytest.mark.parametrize("name", SCENARIOS)
def test_profiled_replay_matches_pin(name):
    """``profile=True`` only adds timers; the search is the same."""
    scenario = PIN["scenarios"][name]
    assert replay(scenario, profile=True) == scenario["outcomes"][CONFIG_KEY]


@pytest.mark.parametrize("name", SCENARIOS)
def test_copy_replays_like_the_original(name):
    """``CdclSolver.copy`` is exact and shares nothing: the log replayed on
    a copy of a fresh solver, and then on that solver itself, both search
    exactly as pinned."""
    scenario = PIN["scenarios"][name]
    original = CdclSolver(log_cnf(scenario))
    copy = original.copy()
    assert type(copy) is CdclSolver
    expected = scenario["outcomes"][CONFIG_KEY]
    assert replay(scenario, solver=copy) == expected
    assert replay(scenario, solver=original) == expected


@pytest.mark.parametrize("name", SCENARIOS)
def test_copy_mid_replay_continues_like_the_original(name):
    """A copy taken mid-search (learned clauses, activities, phases, heap,
    after a database reduction where the log has one) carries on exactly
    as the original does, and the original is unaffected by it."""
    scenario = PIN["scenarios"][name]
    calls = scenario["calls"]
    expected = scenario["outcomes"][CONFIG_KEY]
    solves = [index for index, call in enumerate(calls) if call[0] == "solve"]
    # Copy just before and just after the solve that first reduces the
    # learned database, or after the middle solve of a log that never does.
    reduced = [n for n, outcome in enumerate(expected) if outcome[1]["learned_deleted"]]
    cuts = {reduced[0], reduced[0] + 1} if reduced else {(len(solves) + 1) // 2}
    for done in sorted(cuts):
        head = dict(scenario, calls=calls[: solves[done - 1] + 1])
        tail = dict(scenario, calls=calls[solves[done - 1] + 1:])
        original = CdclSolver(log_cnf(scenario))
        assert replay(head, solver=original) == expected[:done]
        copy = original.copy()
        copy.stats = dataclasses.replace(original.stats)  # as a session carries them
        assert replay(tail, solver=copy) == expected[done:], done
        assert replay(tail, solver=original) == expected[done:], done


def test_search_reaches_reduction_and_rescale(monkeypatch):
    """``random-3sat-reduce`` drives the solver through learned-clause
    reduction and an activity rescale, so the pin covers both."""
    scenario = PIN["scenarios"]["random-3sat-reduce"]
    outcomes = scenario["outcomes"][CONFIG_KEY]
    assert outcomes[-1][1]["learned_deleted"] > 0
    rescales = []
    rescale = CdclSolver._rescale_activity

    def counted(self):
        rescales.append(self.stats.conflicts)
        rescale(self)

    monkeypatch.setattr(CdclSolver, "_rescale_activity", counted)
    assert replay(scenario) == outcomes
    assert rescales


def test_cone_scenario_pins_cone_bounded_solves():
    """``C432-session-cone`` replays cone-bounded sweep solves (``inputs=``):
    refutations whose models cover only the cone's inputs, and a conflict
    that sends the branching cursor back."""
    scenario = PIN["scenarios"]["C432-session-cone"]
    solves = [call for call in scenario["calls"] if call[0] == "solve"]
    assert solves and all(len(call) == 4 for call in solves)
    outcomes = scenario["outcomes"][CONFIG_KEY]
    assert "sat" in {status for status, _, _ in outcomes}
    assert outcomes[-1][1]["conflicts"] > 0


def test_recorded_cone_solves_replay_like_the_session():
    """The recorder logs each sweep solve's ``cone=`` after its inputs, and
    the replay of a freshly recorded session copy ends with exactly the
    counters of a session that verified the same copy unrecorded."""
    base = build_benchmark("C432")
    (log,) = session_logs(base, [CONE_COPY], label="now").values()
    cone_solves = [call for call in log["calls"] if call[0] == "solve" and len(call) > 3]
    assert cone_solves and all(len(call) == 5 for call in cone_solves)
    assert all(len(call[1]) == 2 for call in cone_solves)  # plain pairs

    catalog = find_locations(base)
    codec = FingerprintCodec(catalog)
    value = select_values(codec.combinations, 40, seed=0)[CONE_COPY]
    session = IncrementalCecSession(base)
    session.verify(
        embed(base, catalog, codec.encode(value)).circuit,
        budget=Budget(max_conflicts=SESSION_CONFLICTS),
    )
    assert replay(log)[-1][1] == counters(session.solver.stats)


@pytest.mark.parametrize("name", ["C432-session-raw0", "C432-session-raw-cone"])
def test_raw_session_scenarios_start_from_the_raw_base(name):
    """A session loads its base's raw Tseitin encoding (for C432, 525
    clauses and no unit), and the raw session scenarios start from exactly
    those clauses; their sweep solves are all cone-bounded, and both
    refute a point and meet a conflict."""
    cnf = encode_circuit(build_benchmark("C432")).cnf
    assert len(cnf.clauses) == 525
    assert all(len(clause) > 1 for clause in cnf.clauses)
    scenario = PIN["scenarios"][name]
    assert scenario["n_vars"] == cnf.n_vars
    assert scenario["clauses"] == [list(clause) for clause in cnf.clauses]
    solves = [call for call in scenario["calls"] if call[0] == "solve"]
    assert solves and all(len(call) == 4 for call in solves)
    outcomes = scenario["outcomes"][CONFIG_KEY]
    assert "sat" in {status for status, _, _ in outcomes}
    assert outcomes[-1][1]["conflicts"] > 0
