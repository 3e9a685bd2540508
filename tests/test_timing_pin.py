"""The timing pin: STA must reproduce every recorded float exactly.

``tests/golden/timing_pin.json`` holds, per timing case and delay model,
the critical delay as ``float.hex``, the critical path and a digest of
every arrival, required time and gate delay; per constraint case, the
heuristic's steps, kept modifications and final delay.  A rerun that
differs in any of them moved a delay.  See
``tests/golden/make_timing_pin.py`` for the cases and for when
regenerating the pin is legitimate.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.make_timing_pin import OUT, case_outcome, cases

with open(OUT) as _handle:
    PIN = json.load(_handle)

CASES = PIN["cases"]
TIER1 = sorted(name for name, case in CASES.items() if case["tier1"])
DIFFERENTIAL = sorted(name for name, case in CASES.items() if not case["tier1"])


def test_pin_matches_the_case_table():
    table = cases()
    assert sorted(CASES) == sorted(table)
    for name, (tier1, _) in table.items():
        assert CASES[name]["tier1"] == tier1, name


@pytest.mark.parametrize("name", TIER1)
def test_timing_matches_pin(name):
    assert case_outcome(name) == CASES[name]["record"], name


@pytest.mark.differential
@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_differential_timing_matches_pin(name):
    assert case_outcome(name) == CASES[name]["record"], name
