"""The mapper pin: ``map_network`` must emit exactly the recorded netlists.

``tests/golden/techmap_pin.json`` holds, per case, a digest of the mapped
gate table in its own order, the port lists, a digest of the Verilog
text and the gate count.  A rerun that differs in any of them changed
the mapped netlist, its gate order included.  See
``tests/golden/make_techmap_pin.py`` for the cases and for when
regenerating the pin is legitimate.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.make_techmap_pin import OUT, case_outcome, cases

with open(OUT) as _handle:
    PIN = json.load(_handle)

CASES = PIN["cases"]
TIER1 = sorted(name for name, case in CASES.items() if case["tier1"])
DIFFERENTIAL = sorted(name for name, case in CASES.items() if not case["tier1"])


def test_pin_matches_the_case_table():
    table = cases()
    assert sorted(CASES) == sorted(table)
    for name, (tier1, *_rest) in table.items():
        assert CASES[name]["tier1"] == tier1, name


@pytest.mark.parametrize("name", TIER1)
def test_mapped_netlist_matches_pin(name):
    assert case_outcome(name) == CASES[name]["netlist"], name


@pytest.mark.differential
@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_differential_mapped_netlist_matches_pin(name):
    assert case_outcome(name) == CASES[name]["netlist"], name
