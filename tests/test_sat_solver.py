"""Unit + property tests for the CDCL SAT solver.

The property tests cross-check the solver against brute-force enumeration
on random small formulas — both the SAT/UNSAT verdict and model validity.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.budget import Budget
from repro.sat import CdclSolver, Cnf, SatStatus, SolverAbortedError, SolverStats, solve_cnf
from repro.sat import solver as solver_module


def brute_force_sat(cnf: Cnf) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.n_vars):
        if cnf.evaluate((False,) + bits):
            return True
    return False


def clause_strategy(n_vars: int):
    literal = st.integers(1, n_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(literal, min_size=1, max_size=4).map(tuple)


formulas = st.integers(3, 8).flatmap(
    lambda n: st.lists(clause_strategy(n), min_size=1, max_size=24).map(
        lambda clauses: _build(n, clauses)
    )
)


def _build(n_vars, clauses) -> Cnf:
    cnf = Cnf(n_vars=n_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestBasics:
    def test_trivial_sat(self):
        cnf = Cnf(n_vars=1)
        cnf.add_clause([1])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.value(1) is True

    def test_trivial_unsat(self):
        cnf = Cnf(n_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not solve_cnf(cnf).satisfiable

    def test_unit_propagation_chain(self):
        cnf = Cnf(n_vars=4)
        cnf.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert all(result.value(v) for v in range(1, 5))

    def test_requires_backtracking(self):
        # Pigeonhole PHP(3,2): 3 pigeons, 2 holes — UNSAT, needs search.
        cnf = Cnf(n_vars=6)  # var(p,h) = 2*p + h + 1
        for p in range(3):
            cnf.add_clause([2 * p + 1, 2 * p + 2])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-(2 * p1 + h + 1), -(2 * p2 + h + 1)])
        result = solve_cnf(cnf)
        assert not result.satisfiable
        assert result.stats.conflicts > 0

    def test_tautological_clause_ignored(self):
        cnf = Cnf(n_vars=2)
        cnf.add_clause([1, -1])
        cnf.add_clause([2])
        result = solve_cnf(cnf)
        assert result.satisfiable and result.value(2)

    def test_duplicate_literals_handled(self):
        cnf = Cnf(n_vars=2)
        cnf.add_clause([1, 1, 2])
        assert solve_cnf(cnf).satisfiable

    def test_model_access_on_unsat(self):
        cnf = Cnf(n_vars=1)
        cnf.add_clauses([[1], [-1]])
        result = solve_cnf(cnf)
        try:
            result.value(1)
            assert False, "expected ValueError"
        except ValueError:
            pass


class TestAssumptions:
    def test_assumption_forces_value(self):
        cnf = Cnf(n_vars=2)
        cnf.add_clause([1, 2])
        result = solve_cnf(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.value(1) is False and result.value(2) is True

    def test_conflicting_assumption(self):
        cnf = Cnf(n_vars=2)
        cnf.add_clause([1])
        assert not solve_cnf(cnf, assumptions=[-1]).satisfiable

    def test_assumptions_unsat_via_propagation(self):
        cnf = Cnf(n_vars=3)
        cnf.add_clauses([[-1, 2], [-2, 3]])
        assert not solve_cnf(cnf, assumptions=[1, -3]).satisfiable


class TestAgainstBruteForce:
    @given(formulas)
    @settings(max_examples=120, deadline=None)
    def test_verdict_matches_brute_force(self, cnf):
        expected = brute_force_sat(cnf)
        result = CdclSolver(cnf).solve()
        assert result.satisfiable == expected
        if result.satisfiable:
            assignment = [False] + [
                result.model[v] for v in range(1, cnf.n_vars + 1)
            ]
            assert cnf.evaluate(assignment)


class TestIncrementalInterface:
    """The solver survives add_clause/new_var/solve interleavings."""

    def test_repeated_solves_under_different_assumptions(self):
        cnf = Cnf(n_vars=3)
        cnf.add_clauses([[1, 2], [-1, 3]])
        solver = CdclSolver(cnf)
        assert solver.solve(assumptions=[1]).satisfiable
        assert solver.solve(assumptions=[-1]).satisfiable
        assert solver.solve(assumptions=[1, -3]).status.value == "unsat"
        # Earlier failing assumptions must not poison later solves.
        assert solver.solve(assumptions=[1, 3]).satisfiable

    def test_add_clause_between_solves(self):
        solver = CdclSolver(Cnf(n_vars=2))
        assert solver.solve().satisfiable
        assert solver.add_clause([1, 2])
        assert solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable and result.value(2) is True
        assert solver.add_clause([-2]) is False  # now trivially UNSAT
        assert not solver.solve().satisfiable

    def test_new_var_extends_the_instance(self):
        solver = CdclSolver(Cnf(n_vars=1))
        fresh = solver.new_var()
        assert fresh == 2
        solver.add_clause([1, fresh])
        solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable and result.value(fresh) is True

    def test_activation_literal_pattern(self):
        """Clauses gated behind an activation literal can be retired by
        asserting its negation — the incremental-CEC retirement idiom."""
        solver = CdclSolver(Cnf(n_vars=2))
        act = solver.new_var()
        solver.add_clause([1, -act])
        solver.add_clause([-1, -act])  # contradictory *only* under act
        assert not solver.solve(assumptions=[act]).satisfiable
        assert solver.solve().satisfiable  # without the assumption: fine
        assert solver.add_clause([-act])  # retire for good
        assert solver.solve().satisfiable
        assert solver.solve(assumptions=[1]).satisfiable

    def test_add_clause_rejects_unallocated_variable(self):
        solver = CdclSolver(Cnf(n_vars=1))
        try:
            solver.add_clause([5])
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for unknown variable")

    def test_budget_is_per_solve_not_cumulative(self):
        """A persistent solver re-solved under the same conflict budget
        must not inherit previous solves' conflict counts."""
        from repro.budget import Budget

        # A small pigeonhole-flavored instance that forces some conflicts.
        cnf = Cnf(n_vars=6)
        cnf.add_clauses(
            [
                [1, 2], [3, 4], [5, 6],
                [-1, -3], [-1, -5], [-3, -5],
                [-2, -4], [-2, -6], [-4, -6],
            ]
        )
        solver = CdclSolver(cnf)
        budget = Budget(max_conflicts=50)
        first = solver.solve(budget=budget)
        total_after_first = solver.stats.conflicts
        second = solver.solve(budget=budget)
        # Identical verdicts; the second call was not starved by the
        # first call's accumulated counters.
        assert first.status is second.status
        assert not second.unknown or total_after_first < 50


#: Root facts every intake case starts from: x1 true, x2 false (internal
#: literals 2 and 5; variable v is 2v, its negation 2v + 1).
ROOT_FACTS = ((1,), (-2,))
ROOT_TRAIL = [2, 5]


def intake_state(solver: CdclSolver):
    """What a clause intake can change: the clause database, the non-empty
    long and binary watch lists, the trail and the trivially-UNSAT mark."""
    return (
        solver._clauses,
        {lit: w for lit, w in enumerate(solver._watches) if w},
        {lit: w for lit, w in enumerate(solver._bin_watches) if w},
        solver._trail,
        solver._trivially_unsat,
    )


#: (case, clause, add_clause outcome, CNF-load outcome).  An outcome is
#: ``(returned, clauses, long watches, binary watches, trail, unsat)`` or
#: ``(error type, message)``.  The CNF load enqueues units only after
#: every clause is in, so it simplifies nothing against the root facts.
INTAKE_CASES = [
    ("duplicate-literals", (3, 4, 3),
     (True, [[6, 8]], {}, {6: [8, 0], 8: [6, 0]}, ROOT_TRAIL, False),
     ([[6, 8]], {}, {6: [8, 0], 8: [6, 0]}, ROOT_TRAIL, False)),
    ("duplicate-literals-long", (3, 4, 3, 5, 4),
     (True, [[6, 8, 10]], {6: [8, 0], 8: [6, 0]}, {}, ROOT_TRAIL, False),
     ([[6, 8, 10]], {6: [8, 0], 8: [6, 0]}, {}, ROOT_TRAIL, False)),
    ("complementary-pair", (3, 4, -3),
     (True, [], {}, {}, ROOT_TRAIL, False),
     ([], {}, {}, ROOT_TRAIL, False)),
    ("satisfied-at-root", (3, 1),
     (True, [], {}, {}, ROOT_TRAIL, False),
     ([[6, 2]], {}, {6: [2, 0], 2: [6, 0]}, ROOT_TRAIL, False)),
    ("falsified-literal-dropped", (3, 2, 4),
     (True, [[6, 8]], {}, {6: [8, 0], 8: [6, 0]}, ROOT_TRAIL, False),
     ([[6, 4, 8]], {6: [4, 0], 4: [6, 0]}, {}, ROOT_TRAIL, False)),
    ("falsified-to-unit", (2, 3),
     (True, [], {}, {}, ROOT_TRAIL + [6], False),
     ([[4, 6]], {}, {4: [6, 0], 6: [4, 0]}, ROOT_TRAIL, False)),
    ("unit", (3,),
     (True, [], {}, {}, ROOT_TRAIL + [6], False),
     ([], {}, {}, ROOT_TRAIL + [6], False)),
    ("all-false", (-1, 2),
     (False, [], {}, {}, ROOT_TRAIL, True),
     ([[3, 4]], {}, {3: [4, 0], 4: [3, 0]}, ROOT_TRAIL, False)),
    ("conflicting-unit", (-1,),
     (False, [], {}, {}, ROOT_TRAIL, True),
     ([], {}, {}, ROOT_TRAIL, True)),
    ("empty", (),
     (False, [], {}, {}, ROOT_TRAIL, True),
     ([], {}, {}, ROOT_TRAIL, True)),
    ("literal-0", (3, 0),
     (ValueError, "literal 0 is not allowed"),
     (ValueError, "literal 0 is not allowed")),
    ("out-of-range-positive", (3, 6),
     (ValueError, "literal 6 references unallocated variable"),
     (ValueError, "literal 6 references unallocated variable")),
    ("out-of-range-negative", (-6, 3),
     (ValueError, "literal -6 references unallocated variable"),
     (ValueError, "literal -6 references unallocated variable")),
    ("bad-literal-in-satisfied-clause", (1, 7),
     (ValueError, "literal 7 references unallocated variable"),
     (ValueError, "literal 7 references unallocated variable")),
    ("bad-literal-in-tautology", (3, -3, 0),
     (ValueError, "literal 0 is not allowed"),
     (ValueError, "literal 0 is not allowed")),
]


class TestClauseIntake:
    """``add_clause`` and the CNF load share one intake: every outcome,
    error and resulting clause database, watch list and trail."""

    @staticmethod
    def root_solver() -> CdclSolver:
        solver = CdclSolver(Cnf(n_vars=5))
        for unit in ROOT_FACTS:
            assert solver.add_clause(unit)
        return solver

    @pytest.mark.parametrize(
        "clause,outcome", [case[1:3] for case in INTAKE_CASES],
        ids=[case[0] for case in INTAKE_CASES],
    )
    def test_add_clause(self, clause, outcome):
        solver = self.root_solver()
        before = intake_state(solver)
        if isinstance(outcome[0], type):
            error, message = outcome
            with pytest.raises(error) as caught:
                solver.add_clause(clause)
            assert type(caught.value) is error and str(caught.value) == message
            assert intake_state(solver) == before
            return
        returned, *state = outcome
        assert solver.add_clause(clause) is returned
        assert intake_state(solver) == tuple(state)
        assert solver.solve().satisfiable is returned

    @pytest.mark.parametrize(
        "clause,outcome", [(case[1], case[3]) for case in INTAKE_CASES],
        ids=[case[0] for case in INTAKE_CASES],
    )
    def test_cnf_load(self, clause, outcome):
        # Built without Cnf.add_clause, which rejects the bad clauses first.
        cnf = Cnf(n_vars=5, clauses=list(ROOT_FACTS) + [clause])
        if isinstance(outcome[0], type):
            error, message = outcome
            with pytest.raises(error) as caught:
                CdclSolver(cnf)
            assert type(caught.value) is error and str(caught.value) == message
            return
        solver = CdclSolver(cnf)
        assert intake_state(solver) == outcome
        add_outcome = dict((case[1], case[2]) for case in INTAKE_CASES)[clause]
        assert solver.solve().satisfiable is add_outcome[0]

    def test_add_clause_above_decision_level_0(self):
        solver = self.root_solver()
        solver._trail_lim.append(len(solver._trail))  # as mid-search
        before = intake_state(solver)
        with pytest.raises(ValueError) as caught:
            solver.add_clause([3, 4])
        assert str(caught.value) == "add_clause requires decision level 0"
        assert intake_state(solver) == before

    def test_add_clause_on_an_aborted_solver(self):
        solver = self.root_solver()

        def abort(head):
            raise TestAbortedSolve.Abort()

        solver._propagate = abort
        with pytest.raises(TestAbortedSolve.Abort):
            solver.solve()
        before = intake_state(solver)
        with pytest.raises(SolverAbortedError) as caught:
            solver.add_clause([3, 4])
        assert str(caught.value) == "solver state is undefined after an aborted solve()"
        assert intake_state(solver) == before


class TestConeBoundedSolve:
    """``solve(inputs=...)`` branches only on a circuit cone's inputs and
    answers SAT once they are assigned without conflict."""

    @staticmethod
    def _circuit() -> CdclSolver:
        """Inputs 1-4; g = AND(1, 2) is var 5, h = OR(3, 4) var 6, and
        var 7 is AND(2, 1), a second encoding of g."""
        from repro.sat.tseitin import _encode

        cnf = Cnf(n_vars=7)
        _encode(cnf, "AND", 5, [1, 2])
        _encode(cnf, "OR", 6, [3, 4])
        _encode(cnf, "AND", 7, [2, 1])
        return CdclSolver(cnf)

    @staticmethod
    def _activate(solver: CdclSolver, *lits: int) -> int:
        act = solver.new_var()
        for lit in lits:
            solver.add_clause([-act, lit])
        return act

    def test_refutation_models_only_the_cone(self):
        solver = self._circuit()
        act = self._activate(solver, 5, -6)  # g and not h
        result = solver.solve([act], inputs=[1, 2, 3, 4])
        assert result.satisfiable
        model = result.model
        assert set(model) == {1, 2, 3, 4}
        assert model[1] and model[2] and not (model[3] or model[4])
        assert solver.stats.decisions <= 4

    def test_equal_cones_are_unsat(self):
        solver = self._circuit()
        for lits in ((5, -7), (-5, 7)):
            act = self._activate(solver, *lits)
            assert solver.solve([act], inputs=[1, 2]).status is SatStatus.UNSAT
        assert solver.solve().satisfiable  # the unbounded formula is untouched

    def test_unallocated_input_is_rejected(self):
        solver = self._circuit()
        with pytest.raises(ValueError, match="not allocated"):
            solver.solve(inputs=[1, 99])

    @staticmethod
    def _mask(*variables: int) -> int:
        return sum(1 << var for var in variables)

    @staticmethod
    def _side_gates() -> Cnf:
        """The circuit of ``_circuit`` plus gates reading g outside every
        cone below: var 8 = OR(5, 3) and var 9 = NAND(8, 6)."""
        from repro.sat.tseitin import _encode

        cnf = Cnf(n_vars=9)
        _encode(cnf, "AND", 5, [1, 2])
        _encode(cnf, "OR", 6, [3, 4])
        _encode(cnf, "AND", 7, [2, 1])
        _encode(cnf, "OR", 8, [5, 3])
        _encode(cnf, "NAND", 9, [8, 6])
        return cnf

    def test_assumption_pair_is_unsat_without_new_variables(self):
        """The sweep's plain pairs ``(v, -b)`` and ``(-v, b)`` at one
        decision level, with and without the cone: no activation variable."""
        solver = self._circuit()
        cone = self._mask(1, 2, 5, 7)
        for lits in ((5, -7), (-5, 7)):
            assert solver.solve(list(lits), inputs=[1, 2]).status is SatStatus.UNSAT
            result = solver.solve(list(lits), inputs=[1, 2], cone=cone)
            assert result.status is SatStatus.UNSAT
        assert solver.n_vars == 7
        # Contradictory assumptions, and one false at the root, are UNSAT.
        assert solver.solve([5, -5], inputs=[1, 2], cone=cone).status is SatStatus.UNSAT
        solver.add_clause([-1])
        assert solver.solve([5, 2], inputs=[1, 2], cone=cone).status is SatStatus.UNSAT
        assert solver.solve([-5, 2], inputs=[1, 2], cone=cone).satisfiable

    def test_cone_leaves_side_gates_unassigned(self):
        """g and not h: full propagation also assigns 7, 8 and 9, which lie
        outside the cone of 5 and 6; the cone-bounded solve answers the
        same with fewer propagations and models only the inputs."""
        answers = []
        for cone in (None, self._mask(1, 2, 3, 4, 5, 6)):
            solver = CdclSolver(self._side_gates())
            result = solver.solve([5, -6], inputs=[1, 2, 3, 4], cone=cone)
            answers.append((result.status, result.model, solver.stats.propagations))
        (full, full_model, full_props), (bounded, model, props) = answers
        assert full is bounded is SatStatus.SAT
        assert model == full_model == {1: True, 2: True, 3: False, 4: False}
        assert props < full_props

    def test_full_solves_after_cone_solves_match_a_fresh_solver(self):
        """Cone-bounded solves leave clauses unpropagated above the root
        only: every later full solve answers as a fresh solver does,
        including after a root unit that a cone solve propagated first."""
        cnf = self._side_gates()
        solver = CdclSolver(cnf)
        cone = self._mask(1, 2, 3, 4, 5, 6)
        solver.solve([5, -6], inputs=[1, 2, 3, 4], cone=cone)
        solver.solve([-5, 6], inputs=[1, 2, 3, 4], cone=cone)
        solver.add_clause([3])  # a root unit, pending until the next solve
        cnf.add_clause([3])
        assert solver.solve([5, -7], inputs=[1, 2], cone=self._mask(1, 2, 5, 7)).status \
            is SatStatus.UNSAT
        assert solver.solve().satisfiable is CdclSolver(cnf).solve().satisfiable is True
        literals = [lit for var in range(1, 10) for lit in (var, -var)]
        for pair in itertools.combinations(literals, 2):
            assert solver.solve(list(pair)).status is CdclSolver(cnf).solve(list(pair)).status

    def test_root_propagation_ignores_the_cone(self):
        """Root assignments outlive the solve, so a cone-bounded solve
        propagates a pending root unit in full: input 3 at the root sets
        h (var 6) and the side gate 8 = OR(5, 3), outside the cone."""
        solver = CdclSolver(self._side_gates())
        solver.add_clause([3])
        result = solver.solve([5, -7], inputs=[1, 2], cone=self._mask(1, 2, 5, 7))
        assert result.status is SatStatus.UNSAT
        assert solver._assign[6] == solver._assign[8] == 1
        assert solver._level[6] == solver._level[8] == 0

    def test_cone_without_inputs_is_rejected(self):
        solver = self._circuit()
        with pytest.raises(ValueError, match="inputs"):
            solver.solve([5], cone=self._mask(1, 2, 5))
        assert solver.usable


class TestSolverStatsExtensions:
    def test_new_counters_populate(self):
        cnf = Cnf(n_vars=4)
        cnf.add_clauses([[1, 2], [-1, 3], [-2, -3], [3, 4], [-3, -4], [1, -4]])
        solver = CdclSolver(cnf)
        result = solver.solve()
        stats = result.stats
        assert stats.watch_visits > 0
        assert stats.solve_seconds > 0.0
        assert stats.propagations_per_sec > 0.0
        assert stats.learned_deleted == 0  # tiny instance: nothing reduced

    def test_rate_is_zero_without_solve_time(self):
        assert SolverStats(propagations=15).propagations_per_sec == 0.0

    def test_db_reduction_deletes_learned_clauses(self, monkeypatch):
        """Force database reduction with a tiny limit and frequent
        restarts; verdicts stay correct and deletions are counted."""
        import random

        rng = random.Random(0)
        n_vars = 40
        cnf = Cnf(n_vars=n_vars)
        for _ in range(180):
            clause = rng.sample(range(1, n_vars + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        solver = CdclSolver(cnf)
        solver._reduce_limit = 8
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "RESTART_BASE", 4)
            result = solver.solve()
        assert not result.unknown
        assert solver.stats.learned_deleted > 0
        # Cross-check the verdict on a fresh solver without reduction.
        assert result.satisfiable == CdclSolver(cnf).solve().satisfiable


def random_3sat(n_vars: int, n_clauses: int, seed: int) -> Cnf:
    rng = random.Random(seed)
    cnf = Cnf(n_vars=n_vars)
    for _ in range(n_clauses):
        clause = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause])
    return cnf


def random_assumptions(rng: random.Random, n_vars: int, width: int):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n_vars + 1), width)]


class TestVsidsHeapBound:
    """Stale heap entries must not accumulate across solves."""

    @pytest.mark.timeout(30)
    def test_heap_stays_bounded_over_many_assumption_solves(self):
        n_vars = 150
        solver = CdclSolver(random_3sat(n_vars, 600, seed=3))
        rng = random.Random(4)
        bound = 2 * (solver.n_vars + 1)
        for _ in range(300):
            solver.solve(random_assumptions(rng, n_vars, 3),
                         budget=Budget(max_conflicts=30))
            assert len(solver._heap) <= bound


class TestAbortedSolve:
    """An exception escaping solve() must not leave an answering solver.

    Before the fix the next solve() took the aborted search's decision
    levels for assumptions and could answer UNSAT on a satisfiable
    formula."""

    class Abort(Exception):
        pass

    def test_solver_refuses_reuse_after_abort(self):
        cnf = random_3sat(80, 320, seed=11)
        solver = CdclSolver(cnf)
        real_pick = solver._pick_branch
        picks = [0]

        def pick():
            picks[0] += 1
            if picks[0] > 5:  # mid-search, decision levels open
                raise self.Abort()
            return real_pick()

        solver._pick_branch = pick
        with pytest.raises(self.Abort):
            solver.solve(assumptions=[1, -2])
        assert not solver.usable
        with pytest.raises(SolverAbortedError):
            solver.solve()
        with pytest.raises(SolverAbortedError):
            solver.add_clause([1, 2])
        with pytest.raises(SolverAbortedError):
            solver.new_var()
        # The formula itself is fine: a fresh solver answers it.
        assert CdclSolver(cnf).solve().satisfiable
