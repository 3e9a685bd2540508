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

import json

import pytest

from repro.sat.solver import CdclSolver
from tests.golden.make_sat_trajectory import CONFIG_KEY, OUT, replay

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
