"""Differential tests for the incremental CEC session.

The contract under test: :meth:`IncrementalCecSession.verify` must agree
with the raw reference miter (:func:`tests.miter_reference.miter_check`)
verdict for verdict on every kind of copy — structurally identical,
fingerprinted-equivalent, and functionally broken (via the
:mod:`repro.faultinject` mutators) — and its counterexamples must be real
(simulating them must expose an output difference).
"""

from __future__ import annotations

import random
from copy import deepcopy
from typing import Dict, List
from unittest import mock

import pytest

from repro.bench import RandomLogicSpec, generate
from repro.budget import Budget
from repro.faultinject.mutators import functional_mutators
from repro.fingerprint import FingerprintCodec, embed, find_locations
from repro.netlist import Circuit
from repro.netlist.transform import rename_nets
from repro.sat import IncrementalCecSession, incremental
from repro.sat.cec import CecVerdict
from repro.sat.incremental import check
from repro.sat.solver import CdclSolver, SolverStats
from repro.sat.tseitin import encode_circuit
from repro.sim.equivalence import PortMismatchError
from repro.sim.simulator import Simulator
from tests.miter_reference import miter_check


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


def rare_difference(circuit: Circuit, net: str, width: int = 15) -> Circuit:
    """A copy of ``circuit`` whose ``net`` flips only when its first
    ``width`` primary inputs are all 1: the net's driver is renamed
    ``<net>_pre`` and ``net`` is re-driven as ``XOR(<net>_pre, rare)``,
    ``rare`` a chain of 2-input ANDs.  512 random vectors almost never
    set all ``width`` inputs at once, so ``net`` keeps its signature."""
    mutant = circuit.clone(f"{circuit.name}_rare")
    driver = mutant.remove_gate(net)
    mutant.add_gate(f"{net}_pre", driver.kind, driver.inputs, cell=driver.cell)
    rare = mutant.inputs[0]
    for index, name in enumerate(mutant.inputs[1:width]):
        rare = mutant.add_gate(f"{net}_rare{index}", "AND", [rare, name]).name
    mutant.add_gate(net, "XOR", [f"{net}_pre", rare])
    mutant.validate()
    return mutant


def shadowed_output(circuit: Circuit, net: str) -> Circuit:
    """A copy of ``circuit`` whose output ``net`` the sweep cannot merge:
    the driver is renamed ``<net>_pre``, and ``net = INV(<net>_inv)`` with
    ``<net>_inv = INV(<net>_pre)`` gets a copy-only twin ``<net>_dup``
    added after it.  Topological order visits the twin first, so ``net``
    strash-hits the twin's variable, which has no base gate to sweep
    against, and is left as an output obligation."""
    mutant = circuit.clone(f"{circuit.name}_shadow")
    driver = mutant.remove_gate(net)
    mutant.add_gate(f"{net}_pre", driver.kind, driver.inputs, cell=driver.cell)
    mutant.add_gate(f"{net}_inv", "INV", [f"{net}_pre"])
    mutant.add_gate(net, "INV", [f"{net}_inv"])
    mutant.add_gate(f"{net}_dup", "INV", [f"{net}_inv"])
    mutant.validate()
    return mutant


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
            reference = miter_check(base, copy)
            assert incremental.verdict is reference.verdict
            assert incremental.verdict is CecVerdict.EQUIVALENT

    def test_mutated_copies_agree(self):
        """Faultinject mutants: verdicts match the raw miter, and any
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
            reference = miter_check(base, mutant)
            assert incremental.verdict is reference.verdict
            outcomes.add(incremental.verdict)
            if incremental.counterexample is not None:
                _assert_counterexample_real(base, mutant, incremental.counterexample)
        # The campaign must actually have produced a disproof somewhere,
        # otherwise this test is vacuous.
        assert CecVerdict.NOT_EQUIVALENT in outcomes

    def test_mutated_fingerprint_copy(self):
        """A broken *fingerprinted* copy (mutation on top of an embedding)
        is caught, matching the raw miter's verdict."""
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
        reference = miter_check(base, mutant)
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
        """Counters are shared across copies: each copy after the first
        starts a fresh solver from the base encoding, and the session's
        and its solver's counters keep accumulating across those rebuilds."""
        base = _random_base(seed=13)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        session = IncrementalCecSession(base)
        solver = session.solver
        stats = solver.stats
        alone = 0
        for value in (1, 2, 3):
            copy = embed(base, catalog, codec.encode(value)).circuit
            assert session.verify(copy).equivalent
            assert session.solver.stats is stats
            fresh = IncrementalCecSession(base)
            assert fresh.verify(copy).equivalent
            alone += fresh.solver.stats.propagations
        assert session.solver is not solver
        assert stats.propagations == alone > 0
        assert session.stats.copies == 3
        assert session.stats.gates_reused > 0

    def test_second_copy_shares_first_copy_delta(self):
        """The same copy verified twice: the second pass starts from the
        base encoding again, so it encodes as many gates as the first and
        gets the same result with the same solver work."""
        base = _random_base(seed=17)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(777)).circuit
        session = IncrementalCecSession(base)
        first = session.verify(copy)
        second = session.verify(copy)
        assert first.equivalent and second.equivalent
        assert second.detail["gates_encoded"] == first.detail["gates_encoded"] > 0
        assert (second.verdict, second.reason, second.detail) == (
            first.verdict, first.reason, first.detail
        )
        assert second.stats.conflicts - first.stats.conflicts == first.stats.conflicts
        assert second.stats.decisions - first.stats.decisions == first.stats.decisions

    def test_copy_result_is_independent_of_session_history(self):
        """A copy's verdict and solver work depend only on the base, the
        copy and the budget — not on which copies the session verified
        before (what lets serial, parallel and resumed runs agree)."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        first, later = (embed(base, catalog, codec.encode(v)).circuit for v in (11, 12345))
        budget = Budget(max_conflicts=5000)

        def outcome(session):
            conflicts = session.solver.stats.conflicts
            propagations = session.solver.stats.propagations
            result = session.verify(later, budget=budget)
            solver = session.solver
            return (
                result.verdict,
                result.detail,
                solver.stats.conflicts - conflicts,
                solver.stats.propagations - propagations,
                solver.n_vars,
                len(solver._trail),
                len(solver._clauses),
            )

        alone = outcome(IncrementalCecSession(base))
        session = IncrementalCecSession(base)
        session.verify(first, budget=budget)
        assert outcome(session) == alone
        # The sweep proves the copy without a conflict, but not without
        # solver work.
        assert alone[0] is CecVerdict.EQUIVALENT and alone[3] > 0

    def test_sweep_adds_no_variable(self):
        """A verified copy's solver holds the base's variables, each encoded
        gate's output and its Tseitin auxiliaries, and nothing more: the
        sweep asks plain assumption pairs, with no variable per point."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        encode = incremental._encode
        for value in (11, 12345, 777):
            copy = embed(base, catalog, codec.encode(value)).circuit
            encoded = []

            def recording(cnf, kind, out, ins):
                encoded.append((kind, len(ins)))
                return encode(cnf, kind, out, ins)

            session = IncrementalCecSession(base)
            with mock.patch.object(incremental, "_encode", recording):
                result = session.verify(copy)
            detail = result.detail
            assert result.equivalent and detail["outputs_sat"] == 0
            assert detail["points_swept"] > 0
            assert len(encoded) == detail["gates_encoded"]
            # An XOR of k inputs chains k - 2 auxiliaries, an XNOR k - 1.
            aux = sum(
                n - (2 if kind == "XOR" else 1)
                for kind, n in encoded
                if kind in ("XOR", "XNOR")
            )
            base_vars = session._base_cnf.n_vars
            assert session.solver.n_vars == base_vars + len(encoded) + aux

    def test_sweep_discharges_every_output_of_a_fingerprint_copy(self):
        """Internal points that keep their base signature are proven equal
        to their base twins and merged, so every output of the copy hashes
        onto the base: no output obligation is left for SAT."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        copy = embed(base, catalog, FingerprintCodec(catalog).encode(12345)).circuit
        result = IncrementalCecSession(base).verify(copy, budget=Budget(max_conflicts=5000))
        detail = result.detail
        assert result.verdict is CecVerdict.EQUIVALENT
        assert detail["outputs_structural"] == detail["outputs"] == len(base.outputs) == 7
        assert detail["outputs_sat"] == 0
        assert detail["points_merged"] >= 1
        assert detail["points_swept"] == detail["points_merged"] + detail["points_refuted"]

    def test_output_obligation_proves_an_equivalent_copy(self):
        """An output the sweep leaves unmerged is proven by its difference
        detector: the copy is EQUIVALENT through one output obligation,
        matching the raw miter."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        copy = embed(base, catalog, FingerprintCodec(catalog).encode(12345)).circuit
        shadowed = shadowed_output(copy, copy.outputs[0])
        result = IncrementalCecSession(base).verify(
            shadowed, budget=Budget(max_conflicts=5000)
        )
        assert result.detail["outputs_sat"] == 1
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.verdict is miter_check(base, shadowed).verdict

    def test_rare_internal_difference_is_not_merged(self):
        """A point whose signature matches its base twin but whose function
        differs: the sweep's solves must refute the merge, and the copy
        must come back NOT_EQUIVALENT with a real counterexample."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        copy = embed(base, catalog, FingerprintCodec(catalog).encode(12345)).circuit
        net = copy.driver(copy.outputs[0]).inputs[0]
        mutant = rare_difference(copy, net)
        session = IncrementalCecSession(base)
        stimulus = session._stimulus
        base_row = Simulator(base).run(stimulus, [net])[net]
        assert (Simulator(mutant).run(stimulus, [net])[net] == base_row).all()

        result = session.verify(mutant, budget=Budget(max_conflicts=5000))
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        _assert_counterexample_real(base, mutant, result.counterexample)
        assert result.verdict is miter_check(base, mutant).verdict

    def test_rebuilds_are_counted_and_traced(self):
        from repro import telemetry

        base = _random_base(seed=13)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copies = [embed(base, catalog, codec.encode(v)).circuit for v in (1, 2, 3)]
        session = IncrementalCecSession(base)
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()
        try:
            with telemetry.enabled(trace=True, metrics=True):
                for copy in copies:
                    session.verify(copy)
            spans = [
                node
                for root in telemetry.get_tracer().drain()
                for node in root.walk()
                if node.name == "cec.verify"
            ]
            counters = telemetry.get_registry().snapshot()["counters"]
        finally:
            telemetry.get_tracer().reset()
            telemetry.get_registry().reset()
        # The first copy uses the constructor's solver.
        assert [span.attrs["rebuilt"] for span in spans] == [False, True, True]
        assert counters["sat.incremental.rebuilds"] == 2

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

    def test_port_mismatch_names_the_ports(self, fig1_circuit):
        session = IncrementalCecSession(fig1_circuit)
        wider = fig1_circuit.clone("wider")
        wider.add_input("E")
        with pytest.raises(PortMismatchError, match=r"input sets differ: \['E'\]"):
            session.verify(wider)
        tapped = fig1_circuit.clone("tapped")
        tapped.add_output("X")
        with pytest.raises(PortMismatchError, match=r"output sets differ: \['X'\]"):
            session.verify(tapped)

    def test_base_mutation_is_rejected(self):
        base = _random_base(seed=7)
        session = IncrementalCecSession(base)
        victim = base.gates[0]
        base.replace_gate(victim.name, victim.kind, list(victim.inputs))
        with pytest.raises(ValueError, match="mutated"):
            session.verify(base.clone("twin"))

    def test_sim_prefilter_disproof_has_counterexample(self):
        """An easy inequivalence is caught by the signature pre-filter
        (no SAT) with a valid counterexample."""
        base = _random_base(seed=55)
        mutant = base.clone("stuck")
        victim = next(g for g in base.topological_order() if g.kind == "INV")
        mutant.replace_gate(victim.name, "BUF", list(victim.inputs))
        session = IncrementalCecSession(base)
        result = session.verify(mutant)
        reference = miter_check(base, mutant)
        assert result.verdict is reference.verdict
        if result.verdict is CecVerdict.NOT_EQUIVALENT:
            assert result.counterexample is not None
            _assert_counterexample_real(base, mutant, result.counterexample)


def _assert_cleared_structurally(result, base: Circuit) -> None:
    """Every output hashed onto the base: no gate encoded, no solve."""
    assert result.equivalent
    assert result.reason == "all outputs discharged structurally"
    assert result.detail["outputs_structural"] == len(base.outputs)
    assert result.detail["gates_encoded"] == 0
    assert result.stats.decisions == 0 and result.stats.propagations == 0


class TestStructuralFastPath:
    """The session is the one structural check: a copy with the base's
    structure hashes onto it gate by gate and clears every output
    without a solve, and any other copy encodes gates."""

    def test_clone_is_identical(self, adder4):
        """A shared session clears every clone, not only its first: a
        clone adds nothing to the solver the next copy starts from."""
        session = IncrementalCecSession(adder4)
        for index in range(2):
            result = session.verify(adder4.clone(f"twin{index}"))
            _assert_cleared_structurally(result, adder4)

    def test_commutative_fanin_swap_is_identical(self, fig1_circuit):
        swapped = Circuit("swapped")
        swapped.add_inputs(["A", "B", "C", "D"])
        swapped.add_gate("X", "AND", ["B", "A"])
        swapped.add_gate("Y", "OR", ["D", "C"])
        swapped.add_gate("F", "AND", ["Y", "X"])
        swapped.add_output("F")
        _assert_cleared_structurally(check(fig1_circuit, swapped), fig1_circuit)

    def test_renamed_internal_gates_are_identical(self, adder4):
        outputs = set(adder4.outputs)
        internal = [net for net in adder4.gate_names() if net not in outputs]
        copy = rename_nets(adder4, {net: f"r_{net}" for net in internal})
        assert internal and not set(internal) & set(copy.gate_names())
        _assert_cleared_structurally(check(adder4, copy), adder4)

    def test_functional_change_is_not_identical(self, fig1_circuit, fig1_modified):
        """The paper's Fig. 1 modification: equivalent, not identical."""
        result = check(fig1_circuit, fig1_modified)
        assert result.equivalent
        assert result.detail["gates_encoded"] > 0

    def test_fingerprinted_copy_is_not_identical(self):
        base = _random_base(seed=61)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(9)).circuit
        result = check(base, copy)
        assert result.equivalent
        assert result.detail["gates_encoded"] > 0

    def test_check_fast_path_skips_solver(self, adder4):
        _assert_cleared_structurally(check(adder4, adder4.clone("twin")), adder4)


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

        def abort(head):
            raise self.Abort()

        # Every solve propagates; a cone-bounded sweep solve that closes
        # by propagation alone never picks a branch.
        aborted._propagate = abort
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

    def test_aborted_solver_is_replaced_from_the_template(self):
        """The first restore builds the template, and the replacement of
        an aborted solver is a copy of it that carries the counters over;
        no solve ever runs on the template."""
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copies = [embed(base, catalog, codec.encode(v)).circuit for v in (11, 12345)]
        built, copied = [], []

        class Counting(CdclSolver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def copy(self):
                clone = super().copy()
                copied.append((self, clone))
                return clone

        def abort(head):
            raise self.Abort()

        with mock.patch.object(incremental, "CdclSolver", Counting):
            session = IncrementalCecSession(base)
            aborted = session.solver
            aborted._propagate = abort
            with pytest.raises(self.Abort):
                session.verify(copies[0])
            assert session._template is None
            stats = aborted.stats
            conflicts = stats.conflicts
            result = session.verify(copies[1], budget=Budget(max_conflicts=5000))
        assert result.verdict is CecVerdict.EQUIVALENT
        template = session._template
        assert built == [aborted, template]
        assert copied == [(template, session.solver)]
        assert type(session.solver) is Counting
        assert session.solver.stats is stats and stats.conflicts >= conflicts
        assert template.stats == SolverStats() and template.usable


def solver_state(solver: CdclSolver) -> Dict[str, object]:
    """Every internal field of ``solver`` but its counters, deep-copied."""
    return {
        name: deepcopy(value)
        for name, value in vars(solver).items()
        if name != "stats"
    }


def shared_lists(left: CdclSolver, right: CdclSolver) -> List[str]:
    """The fields whose list, or a list inside it, both solvers hold."""
    shared = []
    for name, value in vars(left).items():
        if not isinstance(value, list):
            continue
        other = getattr(right, name)
        inner = {id(item) for item in value if isinstance(item, list)}
        if value is other or inner & {id(item) for item in other}:
            shared.append(name)
    return shared


class TestBaseSnapshot:
    """Every copy after the first starts from a copy of the session's
    template, which must be exactly a fresh solver of the base CNF."""

    @pytest.fixture(scope="class")
    def c432(self):
        from repro.bench.suite import build_benchmark

        base = build_benchmark("C432")
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(5)
        values = [rng.randrange(codec.combinations) for _ in range(4)]
        return base, [embed(base, catalog, codec.encode(v)).circuit for v in values]

    def test_restored_solver_equals_a_fresh_base_solver(self, c432):
        base, copies = c432
        fresh = solver_state(CdclSolver(encode_circuit(base).cnf))
        session = IncrementalCecSession(base)
        seen = []
        verify = session._verify

        def capture(circuit, budget):
            seen.append((session.solver, solver_state(session.solver)))
            return verify(circuit, budget)

        session._verify = capture
        for circuit in copies:
            assert session.verify(circuit, budget=Budget(max_conflicts=5000)).equivalent
        template = session._template
        assert template is not None
        for index, (solver, state) in enumerate(seen[1:], 1):
            assert state == fresh, index
            assert shared_lists(solver, template) == []
            assert shared_lists(solver, seen[index - 1][0]) == []
        # Each copy grew its own solver; the template stayed the base alone.
        assert all(solver.n_vars > template.n_vars for solver, _ in seen)
        assert solver_state(template) == fresh
        assert template.stats == SolverStats()

    def test_copy_shares_no_list_and_keeps_the_class(self, c432):
        base, _ = c432
        solver = CdclSolver(encode_circuit(base).cnf, profile=True)
        clone = solver.copy()
        assert type(clone) is CdclSolver and clone._profile
        assert solver_state(clone) == solver_state(solver)
        assert clone.stats == SolverStats() and clone.stats is not solver.stats
        assert shared_lists(clone, solver) == []

    def test_one_copy_check_builds_one_solver_and_no_template(self, c432):
        """``check`` (every flow verdict) is a one-copy session: one solver
        reads the base CNF, and no template is built or copied."""
        base, copies = c432
        built, copied, sessions = [], [], []

        class Counting(CdclSolver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def copy(self):
                copied.append(self)
                return super().copy()

        class Recorded(IncrementalCecSession):
            def __init__(self, base):
                sessions.append(self)
                super().__init__(base)

        mismatch = rare_difference(copies[0], copies[0].driver(copies[0].outputs[0]).inputs[0])
        with mock.patch.object(incremental, "CdclSolver", Counting), \
                mock.patch.object(incremental, "IncrementalCecSession", Recorded):
            for right, budget in (
                (copies[0], None),
                (copies[1], Budget(deadline_s=60, max_conflicts=5000)),
                (mismatch, Budget(max_conflicts=5000)),
            ):
                built.clear()
                result = check(base, right, budget)
                assert result.verdict is not CecVerdict.UNDECIDED
                assert result.stats.propagations > 0
                assert built == [sessions[-1].solver]
                assert sessions[-1]._template is None
        assert copied == []
        assert len(sessions) == 3
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
