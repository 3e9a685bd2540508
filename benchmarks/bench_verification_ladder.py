"""A6 — Verification-ladder characterization.

Runs the budgeted verification ladder over the suite's fingerprinted
copies and records, per configuration, which tier decided each circuit
and how often the SAT budget was hit — the data behind the "degrade
gracefully instead of crashing" robustness claim.  ``extra_info`` keys
follow the standard bench JSON format so the ladder's behaviour lands in
the same reports as the paper-table benches.
"""

from __future__ import annotations

import pytest

from repro.budget import Budget
from repro.fingerprint import embed, full_assignment
from repro.flows import LadderConfig, VerificationTier, run_ladder


@pytest.fixture(scope="module")
def pairs(circuits, catalogs):
    result = {}
    for name, base in circuits.items():
        copy = embed(base, catalogs[name], full_assignment(base, catalogs[name]))
        result[name] = (base, copy.circuit)
    return result


def _run_suite(pairs, config):
    reports = {
        name: run_ladder(base, copy, config=config)
        for name, (base, copy) in pairs.items()
    }
    assert all(r.equivalent for r in reports.values())
    return reports


def _record(benchmark, reports):
    tiers = {tier.value: 0 for tier in VerificationTier}
    for report in reports.values():
        tiers[report.tier.value] += 1
    for tier, count in tiers.items():
        benchmark.extra_info[f"decided_by_{tier.replace('-', '_')}"] = count
    benchmark.extra_info["budget_hits"] = sum(
        1 for r in reports.values() if r.budget_hit
    )
    benchmark.extra_info["proven"] = sum(1 for r in reports.values() if r.proven)
    benchmark.extra_info["n_circuits"] = len(reports)


def test_ladder_default(benchmark, pairs):
    """Ample conflict-only budget: every suite circuit gets a *proof*.

    Deliberately no wall-clock deadline — a loaded machine must not flip
    the assertions below.
    """
    config = LadderConfig(sat_budget=Budget(max_conflicts=50_000_000))
    reports = benchmark.pedantic(
        _run_suite, args=(pairs, config), rounds=1, iterations=1
    )
    _record(benchmark, reports)
    assert all(r.proven for r in reports.values())
    assert benchmark.extra_info["budget_hits"] == 0


def test_ladder_starved(benchmark, pairs):
    """A 0-conflict SAT budget (the session stops before its first sweep
    solve; one conflict is enough to prove most copies): every
    non-exhaustible circuit must fall through to random simulation with
    ``budget_hit`` recorded, and the flow must still produce a verdict
    for all of them."""
    config = LadderConfig(
        max_exhaustive_inputs=8,
        sat_budget=Budget(max_conflicts=0),
        n_random_vectors=2048,
    )
    reports = benchmark.pedantic(
        _run_suite, args=(pairs, config), rounds=1, iterations=1
    )
    _record(benchmark, reports)
    for report in reports.values():
        if report.tier is VerificationTier.RANDOM_SIM:
            assert report.budget_hit
            assert 0.0 < report.confidence < 1.0


def test_ladder_sim_only(benchmark, pairs):
    """SAT tier disabled: exhaustive where possible, random elsewhere."""
    config = LadderConfig(use_sat=False, n_random_vectors=4096)
    reports = benchmark.pedantic(
        _run_suite, args=(pairs, config), rounds=1, iterations=1
    )
    _record(benchmark, reports)
    assert benchmark.extra_info["decided_by_sat_cec"] == 0
