"""The verification ladder: tier order, degradation, and flow integration."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.budget import Budget
from repro.flows import (
    FlowOptions,
    LadderConfig,
    VerificationTier,
    run_flow,
    run_ladder,
)
from repro.netlist import Circuit


def _mutate(circuit: Circuit, name: str) -> Circuit:
    """A functionally different clone (AND -> NAND on one gate)."""
    mutant = circuit.clone(name)
    victim = next(g for g in mutant.topological_order() if g.kind == "AND")
    mutant.replace_gate(victim.name, "NAND", list(victim.inputs))
    return mutant


@pytest.fixture(scope="module")
def wide_pair():
    """18 inputs > default exhaustive limit, so the SAT tier is reached."""
    from repro.bench import RandomLogicSpec, generate
    from repro.fingerprint import embed, find_locations, full_assignment

    base = generate(
        RandomLogicSpec(name="wide", n_inputs=18, n_outputs=6,
                        n_gates=200, seed=5)
    )
    catalog = find_locations(base)
    copy = embed(base, catalog, full_assignment(base, catalog))
    return base, copy.circuit


def test_small_circuit_decided_exhaustively(fig1_circuit, fig1_modified):
    report = run_ladder(fig1_circuit, fig1_modified)
    assert report.tier is VerificationTier.EXHAUSTIVE_SIM
    assert report.equivalent and report.proven
    assert report.confidence == 1.0
    assert report.tiers_tried == ("exhaustive-sim",)


def test_exhaustive_finds_counterexample(fig1_circuit):
    mutant = _mutate(fig1_circuit, "fig1_broken")
    report = run_ladder(fig1_circuit, mutant)
    assert not report.equivalent and report.proven
    assert report.counterexample is not None
    assert report.tier is VerificationTier.EXHAUSTIVE_SIM


def test_wide_circuit_climbs_to_sat(wide_pair):
    base, copy = wide_pair
    report = run_ladder(base, copy)
    assert report.tier is VerificationTier.SAT_CEC
    assert report.equivalent and report.proven
    assert not report.budget_hit
    assert report.tiers_tried == ("sat-cec",)
    assert report.sat_stats is not None


def test_starved_budget_falls_to_random(wide_pair):
    """The acceptance scenario end to end: SAT starved at 0 conflicts
    (the session stops before its first sweep solve), the ladder still
    answers — probabilistically, with the budget hit recorded and both
    tiers listed."""
    base, copy = wide_pair
    config = LadderConfig(
        sat_budget=Budget(max_conflicts=0), n_random_vectors=4096
    )
    report = run_ladder(base, copy, config=config)
    assert report.tier is VerificationTier.RANDOM_SIM
    assert report.equivalent and not report.proven
    assert report.budget_hit
    assert report.tiers_tried == ("sat-cec", "random-sim")
    assert 0.9 < report.confidence < 1.0
    assert report.n_vectors == 4096


@pytest.mark.parametrize("deadline", [0.0, 1e-9])
def test_one_clock_covers_the_session_build(wide_pair, deadline):
    """Without a session the SAT tier builds a one-copy session on the
    budget's clock: a deadline spent before it starts stops base
    preprocessing before its first probe, the copy gets only what
    remains, and the verdict names the caller's deadline, not the
    remainder's."""
    base, copy = wide_pair
    telemetry.get_registry().reset()
    with telemetry.enabled(trace=False, metrics=True):
        report = run_ladder(
            base, copy, config=LadderConfig(sat_budget=Budget(deadline_s=deadline))
        )
    counters = telemetry.drain_metrics()["counters"]
    assert report.tier is VerificationTier.RANDOM_SIM and report.budget_hit
    assert f"deadline {deadline:g}s exceeded" in report.reason
    assert counters["sat.preprocess.probes"] == 0


def test_random_tier_mismatch_is_a_proof(wide_pair):
    base, _ = wide_pair
    mutant = _mutate(base, "wide_broken")
    config = LadderConfig(
        sat_budget=Budget(max_conflicts=1), n_random_vectors=4096
    )
    report = run_ladder(base, mutant, config=config)
    assert not report.equivalent
    assert report.proven  # a found counterexample is a proof either way
    assert report.counterexample is not None


def test_sat_disabled_skips_the_tier(wide_pair):
    base, copy = wide_pair
    report = run_ladder(base, copy, config=LadderConfig(use_sat=False))
    assert report.tier is VerificationTier.RANDOM_SIM
    assert "sat-cec" not in report.tiers_tried


def test_confidence_for_scales_with_detectable_rate(wide_pair):
    base, copy = wide_pair
    config = LadderConfig(sat_budget=Budget(max_conflicts=0))
    report = run_ladder(base, copy, config=config)
    assert report.confidence_for(1e-2) > report.confidence_for(1e-4)


def test_flow_never_raises_on_verification_timeout(fig1_circuit):
    """run_flow must yield a FlowResult even when every proof
    tier is starved — the second half of the ISSUE's acceptance check."""
    config = LadderConfig(
        max_exhaustive_inputs=1,
        # The sweep proves fig1's copy without a conflict; a budget of 0
        # stops the session before its first solve.
        sat_budget=Budget(max_conflicts=0),
        n_random_vectors=512,
        sat_simplify=False,
    )
    result = run_flow(fig1_circuit, FlowOptions(ladder=config))
    assert result.verification is not None
    assert result.verification.tier is VerificationTier.RANDOM_SIM
    assert result.verification.budget_hit
    assert result.verification.equivalent
    assert not result.verification.proven


def test_flow_default_ladder_proves(fig1_circuit):
    result = run_flow(fig1_circuit)
    assert result.verification.proven
    assert "verification" in result.summary()


def test_report_summary_mentions_tier(wide_pair):
    base, copy = wide_pair
    report = run_ladder(base, copy)
    assert "sat-cec" in report.summary()


def test_identical_pair_decided_structurally(fig1_circuit):
    """Tier 0: a copy with zero surviving modifications never simulates
    or builds a miter."""
    report = run_ladder(fig1_circuit, fig1_circuit.clone("twin"))
    assert report.tier is VerificationTier.STRUCTURAL
    assert report.equivalent and report.proven
    assert report.tiers_tried == ("structural",)


def test_session_backed_sat_tier(wide_pair):
    """The SAT tier routed through an IncrementalCecSession: same verdict
    and tier bookkeeping as the scratch path."""
    from repro.sat import IncrementalCecSession

    base, copy = wide_pair
    session = IncrementalCecSession(base)
    report = run_ladder(base, copy, session=session)
    assert report.tier is VerificationTier.SAT_CEC
    assert report.equivalent and report.proven
    assert report.tiers_tried == ("sat-cec",)
    assert session.stats.copies == 1


def test_session_backed_budget_degradation(wide_pair):
    from repro.sat import IncrementalCecSession

    base, copy = wide_pair
    session = IncrementalCecSession(base)
    config = LadderConfig(
        sat_budget=Budget(max_decisions=0), n_random_vectors=1024
    )
    report = run_ladder(base, copy, config=config, session=session)
    assert report.tier is VerificationTier.RANDOM_SIM
    assert report.budget_hit and not report.proven
    assert report.tiers_tried == ("sat-cec", "random-sim")


def test_session_base_mismatch_rejected(wide_pair, fig1_circuit):
    from repro.sat import IncrementalCecSession

    base, copy = wide_pair
    session = IncrementalCecSession(base)
    with pytest.raises(ValueError, match="session base"):
        run_ladder(fig1_circuit, copy, session=session)


@pytest.mark.parametrize("name, value, error", [
    ("max_exhaustive_inputs", "x", TypeError),
    ("max_exhaustive_inputs", -1, ValueError),
    ("n_random_vectors", -5, ValueError),
    ("n_random_vectors", 2.5, TypeError),
    ("seed", True, TypeError),
    ("use_sat", 1, TypeError),
    ("sat_simplify", "yes", TypeError),
    ("detectable_rate", 0.0, ValueError),
    ("detectable_rate", 1.5, ValueError),
    ("detectable_rate", "1e-3", TypeError),
    ("sat_budget", {"max_conflicts": 5}, TypeError),
])
def test_config_rejects_bad_fields(name, value, error):
    with pytest.raises(error, match=name):
        LadderConfig(**{name: value})
