"""Differential tests for the incremental CEC session.

The contract under test: :meth:`IncrementalCecSession.verify` must agree
with the scratch checker (:func:`sat_equivalent`) verdict for verdict on
every kind of copy — structurally identical, fingerprinted-equivalent,
and functionally broken (via the :mod:`repro.faultinject` mutators) — and
its counterexamples must be real (simulating them must expose an output
difference).
"""

from __future__ import annotations

import random

import pytest

from repro.bench import RandomLogicSpec, generate
from repro.budget import Budget
from repro.faultinject.mutators import functional_mutators
from repro.fingerprint import FingerprintCodec, embed, find_locations
from repro.netlist import Circuit
from repro.sat import IncrementalCecSession, sat_equivalent, structurally_identical
from repro.sat.cec import CecVerdict
from repro.sim.equivalence import PortMismatchError
from repro.sim.simulator import Simulator


def _random_base(seed: int = 21, n_gates: int = 140) -> Circuit:
    return generate(
        RandomLogicSpec(
            name=f"incbase{seed}",
            n_inputs=12,
            n_outputs=8,
            n_gates=n_gates,
            seed=seed,
        )
    )


def _assert_counterexample_real(base, copy, counterexample):
    left = Simulator(base).run_single(counterexample)
    right = Simulator(copy).run_single(counterexample)
    assert any(left[o] != right[o] for o in base.outputs), (
        f"counterexample {counterexample} does not distinguish the circuits"
    )


class TestDifferentialAgainstScratch:
    def test_fingerprint_copies_agree(self):
        base = _random_base()
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(5)
        session = IncrementalCecSession(base)
        for _ in range(5):
            value = rng.randrange(codec.combinations)
            copy = embed(base, catalog, codec.encode(value)).circuit
            incremental = session.verify(copy)
            reference = sat_equivalent(base, copy)
            assert incremental.verdict is reference.verdict
            assert incremental.verdict is CecVerdict.EQUIVALENT

    def test_mutated_copies_agree(self):
        """Faultinject mutants: verdicts match scratch CEC, and any
        counterexample actually separates the circuits."""
        base = _random_base(seed=33)
        session = IncrementalCecSession(base)
        rng = random.Random(99)
        outcomes = set()
        for trial in range(6):
            mutant = base.clone(f"mutant{trial}")
            mutator = rng.choice(functional_mutators())
            mutator.apply(mutant, rng)
            incremental = session.verify(mutant)
            reference = sat_equivalent(base, mutant)
            assert incremental.verdict is reference.verdict
            outcomes.add(incremental.verdict)
            if incremental.counterexample is not None:
                _assert_counterexample_real(base, mutant, incremental.counterexample)
        # The campaign must actually have produced a disproof somewhere,
        # otherwise this test is vacuous.
        assert CecVerdict.NOT_EQUIVALENT in outcomes

    def test_mutated_fingerprint_copy(self):
        """A broken *fingerprinted* copy (mutation on top of an embedding)
        is caught, matching the scratch verdict."""
        base = _random_base(seed=8)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(12345 % codec.combinations)).circuit
        mutant = copy.clone("tampered")
        rng = random.Random(3)
        mutator = functional_mutators()[0]  # StuckAtNet
        mutator.apply(mutant, rng)
        session = IncrementalCecSession(base)
        incremental = session.verify(mutant)
        reference = sat_equivalent(base, mutant)
        assert incremental.verdict is reference.verdict


class TestSessionMechanics:
    def test_identical_copy_is_structural(self):
        base = _random_base(seed=2)
        session = IncrementalCecSession(base)
        result = session.verify(base.clone("twin"))
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.detail["outputs_sat"] == 0
        assert result.detail["outputs_structural"] == len(base.outputs)
        assert result.detail["gates_encoded"] == 0

    def test_solver_is_shared_across_copies(self):
        """One persistent solver: variables and learned clauses accumulate
        instead of being rebuilt per copy."""
        base = _random_base(seed=13)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        session = IncrementalCecSession(base)
        solver = session.solver
        for value in (1, 2, 3):
            copy = embed(base, catalog, codec.encode(value)).circuit
            assert session.verify(copy).equivalent
            assert session.solver is solver
        assert session.stats.copies == 3
        assert session.stats.gates_reused > 0

    def test_second_copy_shares_first_copy_delta(self):
        """The same copy verified twice: the second pass encodes nothing —
        the structural-hash table already holds the first delta."""
        base = _random_base(seed=17)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(777)).circuit
        session = IncrementalCecSession(base)
        first = session.verify(copy)
        second = session.verify(copy)
        assert first.equivalent and second.equivalent
        assert second.detail["gates_encoded"] == 0

    def test_budget_exhaustion_is_undecided(self):
        base = _random_base(seed=41)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(4321)).circuit
        session = IncrementalCecSession(base)
        starved = session.verify(copy, budget=Budget(max_decisions=0))
        assert starved.verdict is CecVerdict.UNDECIDED
        assert starved.reason is not None
        # The session stays usable, and an unbudgeted retry decides.
        retry = session.verify(copy)
        assert retry.verdict is CecVerdict.EQUIVALENT

    def test_port_mismatch_raises(self):
        base = _random_base(seed=6)
        other = generate(
            RandomLogicSpec(
                name="other", n_inputs=10, n_outputs=8, n_gates=100, seed=6
            )
        )
        session = IncrementalCecSession(base)
        with pytest.raises(PortMismatchError):
            session.verify(other)

    def test_base_mutation_is_rejected(self):
        base = _random_base(seed=7)
        session = IncrementalCecSession(base)
        victim = base.gates[0]
        base.replace_gate(victim.name, victim.kind, list(victim.inputs))
        with pytest.raises(ValueError, match="mutated"):
            session.verify(base.clone("twin"))

    def test_bad_vector_count_rejected(self):
        base = _random_base(seed=5)
        with pytest.raises(ValueError, match="multiple"):
            IncrementalCecSession(base, n_vectors=100)

    def test_sim_prefilter_disproof_has_counterexample(self):
        """An easy inequivalence is caught by the signature pre-filter
        (no SAT) with a valid counterexample."""
        base = _random_base(seed=55)
        mutant = base.clone("stuck")
        victim = next(g for g in base.topological_order() if g.kind == "INV")
        mutant.replace_gate(victim.name, "BUF", list(victim.inputs))
        session = IncrementalCecSession(base)
        result = session.verify(mutant)
        reference = sat_equivalent(base, mutant)
        assert result.verdict is reference.verdict
        if result.verdict is CecVerdict.NOT_EQUIVALENT:
            assert result.counterexample is not None
            _assert_counterexample_real(base, mutant, result.counterexample)


class TestStructuralFastPath:
    def test_clone_is_identical(self, adder4):
        assert structurally_identical(adder4, adder4.clone("twin"))

    def test_commutative_fanin_swap_is_identical(self, fig1_circuit):
        swapped = Circuit("swapped")
        swapped.add_inputs(["A", "B", "C", "D"])
        swapped.add_gate("X", "AND", ["B", "A"])
        swapped.add_gate("Y", "OR", ["D", "C"])
        swapped.add_gate("F", "AND", ["Y", "X"])
        swapped.add_output("F")
        assert structurally_identical(fig1_circuit, swapped)

    def test_functional_change_is_not_identical(self, fig1_circuit, fig1_modified):
        assert not structurally_identical(fig1_circuit, fig1_modified)

    def test_fingerprinted_copy_is_not_identical(self):
        base = _random_base(seed=61)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(9)).circuit
        assert not structurally_identical(base, copy)

    def test_check_fast_path_skips_solver(self, adder4):
        from repro.sat import check

        result = check(adder4, adder4.clone("twin"))
        assert result.equivalent
        assert "structurally identical" in result.reason
        assert result.stats.decisions == 0 and result.stats.propagations == 0


class TestAbortedSolve:
    """An exception escaping a session's solve (a job timeout, say) must
    surface unchanged, and the session must answer correctly afterwards."""

    class Abort(Exception):
        pass

    def test_session_rebuilds_after_an_aborted_solve(self):
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(3)
        copies = [
            embed(base, catalog, codec.encode(rng.randrange(codec.combinations))).circuit
            for _ in range(3)
        ]
        session = IncrementalCecSession(base)
        aborted = session.solver
        real_solve = aborted.solve

        def abort(assumptions=(), budget=None, interrupt=None):
            def boom():
                raise self.Abort()

            return real_solve(assumptions, budget, interrupt=boom)

        aborted.solve = abort
        with pytest.raises(self.Abort):
            session.verify(copies[0])
        assert not aborted.usable
        conflicts = aborted.stats.conflicts

        reference = IncrementalCecSession(base)
        for copy in copies:
            result = session.verify(copy, budget=Budget(max_conflicts=5000))
            assert result.verdict is CecVerdict.EQUIVALENT
            assert result.verdict is reference.verify(copy).verdict
        assert session.solver is not aborted and session.solver.usable
        # counters keep accumulating across the rebuild
        assert session.solver.stats.conflicts >= conflicts
