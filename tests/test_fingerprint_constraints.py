"""Unit tests for the reactive and proactive overhead heuristics."""

import pytest

from repro import telemetry
from repro.fingerprint import embed, find_locations, full_assignment, proactive_delay_constrain, reactive_delay_constrain
from repro.ir.compiled import CompiledCircuit
from repro.sim import check_equivalence
from repro.timing import critical_delay
from repro.bench import build_benchmark


@pytest.fixture(scope="module")
def c880_setup():
    base = build_benchmark("C880")
    catalog = find_locations(base)
    return base, catalog


class TestReactive:
    def test_meets_constraint(self, c880_setup):
        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_delay_constrain(copy, 0.05)
        assert result.met_constraint
        budget = result.baseline_delay * 1.05
        assert critical_delay(copy.circuit) <= budget + 1e-9
        assert result.kept + result.removed == result.initial_active

    def test_functionality_preserved_after_pruning(self, c880_setup):
        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        reactive_delay_constrain(copy, 0.01)
        assert check_equivalence(base, copy.circuit, n_random_vectors=2048).equivalent

    def test_tighter_constraint_removes_more(self, c880_setup):
        base, catalog = c880_setup
        kept = {}
        for constraint in (0.10, 0.01):
            copy = embed(base, catalog, full_assignment(base, catalog))
            result = reactive_delay_constrain(copy, constraint)
            kept[constraint] = result.kept
        assert kept[0.01] <= kept[0.10]

    def test_loose_constraint_removes_nothing(self, c880_setup):
        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_delay_constrain(copy, 10.0)
        assert result.removed == 0
        assert result.fingerprint_reduction == 0.0

    def test_zero_budget_can_empty_the_copy(self, fig1_circuit):
        catalog = find_locations(fig1_circuit)
        copy = embed(fig1_circuit, catalog, full_assignment(fig1_circuit, catalog))
        result = reactive_delay_constrain(copy, -0.99)  # impossible budget
        assert copy.n_active == 0
        assert not result.met_constraint

    def test_surviving_bits_bounded_by_capacity(self, c880_setup):
        from repro.fingerprint import capacity

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_delay_constrain(copy, 0.05)
        assert 0 <= result.surviving_bits <= capacity(catalog).bits

    def test_steps_recorded(self, c880_setup):
        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_delay_constrain(copy, 0.01)
        assert len(result.steps) == result.removed
        assert all(kind in ("greedy", "random") for kind, _ in result.steps)

    def test_pruning_loop_compiles_no_ir(self, monkeypatch):
        # Each trial version is timed once and discarded; timing walks the
        # circuit's own topological order, so no version needs an IR.
        base = build_benchmark("C432")
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog))
        builds = []
        build = CompiledCircuit.__init__

        def counting_build(self, circuit):
            builds.append(circuit.version)
            build(self, circuit)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting_build)
        result = reactive_delay_constrain(copy, 0.01)
        assert len(result.steps) > 10
        assert builds == []

    def test_pruning_loop_runs_two_full_timing_passes(self):
        # The baseline and the timer's build; every trial, critical path
        # and random step after them is an incremental timer update.
        base = build_benchmark("C432")
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog))
        with telemetry.enabled(trace=False, metrics=True):
            before = dict(telemetry.get_registry().counters)
            result = reactive_delay_constrain(copy, 0.01)
            after = dict(telemetry.get_registry().counters)
        assert len(result.steps) > 10
        assert after["timing.analyses"] - before.get("timing.analyses", 0) == 2
        updates = after["timing.updates"] - before.get("timing.updates", 0)
        assert updates > len(result.steps)


class TestProactive:
    def test_never_exceeds_budget(self, c880_setup):
        base, catalog = c880_setup
        for constraint in (0.10, 0.05, 0.01):
            result = proactive_delay_constrain(base, catalog, constraint)
            assert result.met_constraint
            budget = result.baseline_delay * (1 + constraint)
            assert result.final_delay <= budget + 1e-9

    def test_functionality_preserved(self, c880_setup):
        base, catalog = c880_setup
        result = proactive_delay_constrain(base, catalog, 0.05)
        assert check_equivalence(
            base, result.fingerprinted.circuit, n_random_vectors=2048
        ).equivalent

    def test_monotone_in_constraint(self, c880_setup):
        base, catalog = c880_setup
        loose = proactive_delay_constrain(base, catalog, 0.20)
        tight = proactive_delay_constrain(base, catalog, 0.01)
        assert tight.kept <= loose.kept

    def test_steps_cover_all_candidates(self, c880_setup):
        base, catalog = c880_setup
        result = proactive_delay_constrain(base, catalog, 0.05)
        assert len(result.steps) == result.initial_active
        accepted = sum(1 for kind, _ in result.steps if kind == "accepted")
        assert accepted == result.kept


class TestReactiveVsProactive:
    def test_both_meet_same_budget(self, c880_setup):
        """Ablation A1: the two heuristics are interchangeable on budget."""
        base, catalog = c880_setup
        constraint = 0.05
        copy = embed(base, catalog, full_assignment(base, catalog))
        reactive = reactive_delay_constrain(copy, constraint)
        proactive = proactive_delay_constrain(base, catalog, constraint)
        budget = reactive.baseline_delay * (1 + constraint)
        assert reactive.final_delay <= budget + 1e-9
        assert proactive.final_delay <= budget + 1e-9


class TestGeneralizedReactive:
    """§III.D: the reactive method tuned for metrics other than delay."""

    def test_delay_metric_delegates(self, c880_setup):
        from repro.fingerprint import embed, full_assignment, reactive_constrain

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_constrain(copy, "delay", 0.05)
        assert result.met_constraint

    def test_area_constraint(self, c880_setup):
        from repro.analysis import total_area
        from repro.fingerprint import embed, full_assignment, reactive_constrain

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_constrain(copy, "area", 0.05)
        assert result.met_constraint
        assert total_area(copy.circuit) <= total_area(base) * 1.05 + 1e-6
        assert result.removed > 0

    def test_power_constraint(self, c880_setup):
        from repro.power import total_power
        from repro.fingerprint import embed, full_assignment, reactive_constrain

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        result = reactive_constrain(copy, "power", 0.05)
        assert result.met_constraint
        assert total_power(copy.circuit) <= total_power(base) * 1.05 + 1e-6

    def test_functionality_preserved(self, c880_setup):
        from repro.fingerprint import embed, full_assignment, reactive_constrain
        from repro.sim import check_equivalence

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        reactive_constrain(copy, "area", 0.02)
        assert check_equivalence(base, copy.circuit, n_random_vectors=2048).equivalent

    def test_unknown_metric_rejected(self, c880_setup):
        from repro.fingerprint import embed, full_assignment, reactive_constrain

        base, catalog = c880_setup
        copy = embed(base, catalog, full_assignment(base, catalog))
        with pytest.raises(ValueError):
            reactive_constrain(copy, "beauty", 0.05)
