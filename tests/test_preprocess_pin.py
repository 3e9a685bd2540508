"""The preprocessor output pin: ``preprocess`` must simplify exactly as recorded.

``tests/golden/preprocess_pin.json`` holds CNF-level inputs (stored in
full, or as seeds of a deterministic generator plus an input digest) with
the status, output-clause digest, reconstruction-stack digest and every
integer :class:`PreprocessStats` counter of each ``preprocess`` call.  A
rerun that differs in any of them hands the solver a different CNF, even
if an equisatisfiable one.  See ``tests/golden/make_preprocess_pin.py``
for the cases and for when regenerating the pin is legitimate.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.golden.make_preprocess_pin import (
    BOUND_CONFIGS,
    CONFIGS,
    OUT,
    RANDOM_VARS,
    STATS,
    input_digest,
    outcome,
    random_input,
    real_outcome,
    slow_digest,
)

with open(OUT) as _handle:
    PIN = json.load(_handle)

RANDOM = {case["seed"]: case for case in PIN["random"]}
SLOW = PIN["slow"]
SLOW_CHUNK = 100


def test_pin_matches_the_recorded_configs():
    assert PIN["stats"] == list(STATS)
    assert PIN["configs"] == {name: dataclasses.asdict(c) for name, c in CONFIGS.items()}
    for case in PIN["random"]:
        assert sorted(case["expect"]) == sorted(CONFIGS), case["seed"]


def test_every_bound_binds_somewhere():
    """Each lowered effort bound changes at least one random output."""
    cases = PIN["random"]
    for name in BOUND_CONFIGS:
        assert any(c["expect"][name] != c["expect"]["default"] for c in cases), name
    statuses = {o["status"] for c in cases for o in c["expect"].values()}
    assert statuses == {False, True, None}


@pytest.mark.parametrize("name", sorted(PIN["real"]))
def test_real_cnf_matches_pin(name):
    case = PIN["real"][name]
    assert real_outcome(case) == case["expect"], name


@pytest.mark.parametrize("seed", sorted(RANDOM))
def test_random_cnf_matches_pin(seed):
    case = RANDOM[seed]
    cnf, frozen = random_input(seed, RANDOM_VARS)
    assert input_digest(cnf, frozen) == case["input"], "generator drifted"
    for name, config in sorted(CONFIGS.items()):
        assert outcome(cnf, frozen, config) == case["expect"][name], (seed, name)


@pytest.mark.slow
@pytest.mark.parametrize("start", range(0, len(SLOW), SLOW_CHUNK))
def test_slow_population_matches_pin(start):
    for seed, expected_input, expected_output in SLOW[start:start + SLOW_CHUNK]:
        got_input, got_output = slow_digest(seed)
        assert got_input == expected_input, (seed, "generator drifted")
        assert got_output == expected_output, seed
