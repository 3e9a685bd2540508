"""The SAT trajectory pin: the solver must search exactly as recorded.

``tests/golden/sat_trajectory.json`` holds CNF-level call logs (initial
clauses, then ``new_var`` / ``add_clause`` / budgeted ``solve`` calls)
with the status, every integer :class:`SolverStats` counter and a model
digest after each solve, under every pinned :class:`SolverConfig`.  A
replay that differs in any of them means the search itself changed, not
just its speed.  See ``tests/golden/make_sat_trajectory.py`` for the
scenarios and for when regenerating the pin is legitimate.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.sat.solver import SolverConfig
from tests.golden.make_sat_trajectory import OUT, pinned_configs, replay

with open(OUT) as _handle:
    PIN = json.load(_handle)

SCENARIOS = sorted(PIN["scenarios"])
CONFIGS = {config.key(): config for config in pinned_configs()}


def test_pin_covers_every_pinned_config():
    for name in SCENARIOS:
        assert sorted(PIN["scenarios"][name]["outcomes"]) == sorted(CONFIGS), name


@pytest.mark.parametrize("name", SCENARIOS)
def test_replay_matches_pin(name):
    scenario = PIN["scenarios"][name]
    for key, expected in sorted(scenario["outcomes"].items()):
        assert replay(scenario, CONFIGS[key]) == expected, (name, key)


# The random run reaches reduction and rescale only under the portfolio's
# decay-varied configs, so under the default config it adds nothing the
# circuit scenarios do not already cover; skipping it keeps the file fast.
@pytest.mark.parametrize("name", [n for n in SCENARIOS if not n.startswith("random")])
def test_profiled_replay_matches_pin(name):
    """``profile=True`` only adds timers; the search is the default one."""
    scenario = PIN["scenarios"][name]
    expected = scenario["outcomes"][SolverConfig().key()]
    assert replay(scenario, replace(SolverConfig(), profile=True)) == expected
