"""The location-catalog pin: ``find_locations`` must admit exactly as recorded.

``tests/golden/catalog_pin.json`` holds, per case, each circuit's name,
digest, location and slot counts and a digest of every catalog field.
A rerun that differs in any of them changed which fingerprint locations
the finder admits.  See ``tests/golden/make_catalog_pin.py`` for the
cases and for when regenerating the pin is legitimate.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.make_catalog_pin import OUT, case_outcome, cases

with open(OUT) as _handle:
    PIN = json.load(_handle)

CATALOGS = PIN["catalogs"]
TIER1 = sorted(name for name, case in CATALOGS.items() if case["tier1"])
DIFFERENTIAL = sorted(name for name, case in CATALOGS.items() if not case["tier1"])


def test_pin_matches_the_case_table():
    table = cases()
    assert sorted(CATALOGS) == sorted(table)
    for name, (tier1, _) in table.items():
        assert CATALOGS[name]["tier1"] == tier1, name


@pytest.mark.parametrize("name", TIER1)
def test_catalog_matches_pin(name):
    assert case_outcome(name) == CATALOGS[name]["circuits"], name


@pytest.mark.differential
@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_differential_catalog_matches_pin(name):
    assert case_outcome(name) == CATALOGS[name]["circuits"], name

