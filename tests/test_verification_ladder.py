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
    budget's clock: a deadline spent while it is built leaves the copy
    nothing, so the session stops before its first solve, and the
    verdict names the caller's deadline, not the remainder's.  The
    session loads its base unpreprocessed, so the preprocessor leaves no
    counter."""
    base, copy = wide_pair
    telemetry.get_registry().reset()
    with telemetry.enabled(trace=False, metrics=True):
        report = run_ladder(
            base, copy, config=LadderConfig(sat_budget=Budget(deadline_s=deadline))
        )
    counters = telemetry.drain_metrics()["counters"]
    assert report.tier is VerificationTier.RANDOM_SIM and report.budget_hit
    assert f"deadline {deadline:g}s exceeded" in report.reason
    assert "sat.preprocess.probes" not in counters


def test_sessionless_sat_tier_is_check(wide_pair, monkeypatch):
    """Without a session the SAT tier is :func:`repro.sat.check`, the one
    path that builds a one-copy session on a clock, and nothing else
    compares the pair's structure."""
    from repro.flows import ladder

    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ladder, "check", counted("check", ladder.check))
    base, copy = wide_pair
    report = run_ladder(base, copy)
    assert report.tier is VerificationTier.SAT_CEC and report.proven
    assert calls == ["check"]


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


def test_identical_pair_decided_structurally(wide_pair):
    """A copy with zero surviving modifications, too wide to simulate
    exhaustively: the SAT tier's session hashes every gate onto the base
    and clears every output with no decision or propagation."""
    base, _ = wide_pair
    report = run_ladder(base, base.clone("twin"))
    assert report.tier is VerificationTier.SAT_CEC
    assert report.equivalent and report.proven
    assert report.tiers_tried == ("sat-cec",)
    assert report.sat_stats.decisions == 0
    assert report.sat_stats.propagations == 0


def test_narrow_identical_pair_decided_exhaustively(fig1_circuit):
    report = run_ladder(fig1_circuit, fig1_circuit.clone("twin"))
    assert report.tier is VerificationTier.EXHAUSTIVE_SIM
    assert report.equivalent and report.proven
    assert report.tiers_tried == ("exhaustive-sim",)


def test_identical_pair_without_sat_is_not_proven(wide_pair):
    """With the SAT tier off, nothing proves a wide identical pair: the
    random tier answers with its confidence."""
    base, _ = wide_pair
    report = run_ladder(base, base.clone("twin"), config=LadderConfig(use_sat=False))
    assert report.tier is VerificationTier.RANDOM_SIM
    assert report.equivalent and not report.proven
    assert report.tiers_tried == ("random-sim",)
    assert 0.99 < report.confidence < 1.0


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
    ("sat_budget", {"max_conflicts": 5}, TypeError),
])
def test_config_rejects_bad_fields(name, value, error):
    with pytest.raises(error, match=name):
        LadderConfig(**{name: value})
