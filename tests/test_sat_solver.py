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
from repro.sat import CdclSolver, Cnf, SolverAbortedError, SolverStats, solve_cnf


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

    @given(formulas)
    @settings(max_examples=40, deadline=None)
    def test_restart_base_does_not_change_verdict(self, cnf):
        a = CdclSolver(cnf, restart_base=2).solve()
        b = CdclSolver(cnf, restart_base=1000).solve()
        assert a.satisfiable == b.satisfiable


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

    def test_merge_sums_counters_without_double_counting_rates(self):
        """propagations_per_sec must recompute from merged raw counters,
        not add worker rates — the portfolio/pool aggregation contract."""
        a = SolverStats(propagations=1000, solve_seconds=1.0,
                        decisions=10, max_decision_level=5)
        b = SolverStats(propagations=3000, solve_seconds=1.0,
                        decisions=30, max_decision_level=9)
        rate_a, rate_b = a.propagations_per_sec, b.propagations_per_sec
        merged = SolverStats.merged([a, b])
        assert merged.propagations == 4000
        assert merged.decisions == 40
        assert merged.solve_seconds == pytest.approx(2.0)
        assert merged.max_decision_level == 9
        # 4000 props / 2 s = 2000/s — NOT rate_a + rate_b (= 4000/s).
        assert merged.propagations_per_sec == pytest.approx(2000.0)
        assert merged.propagations_per_sec < rate_a + rate_b
        # inputs are untouched, and merge() chains in place
        assert a.propagations == 1000 and b.propagations == 3000
        chained = SolverStats().merge(a).merge(b)
        assert chained.as_dict() == merged.as_dict()

    def test_merge_zero_seconds_is_safe(self):
        merged = SolverStats.merged(
            [SolverStats(propagations=10), SolverStats(propagations=5)]
        )
        assert merged.propagations_per_sec == 0.0

    def test_db_reduction_deletes_learned_clauses(self):
        """Force database reduction with a tiny limit and frequent
        restarts; verdicts stay correct and deletions are counted."""
        import random

        rng = random.Random(0)
        n_vars = 40
        cnf = Cnf(n_vars=n_vars)
        for _ in range(180):
            clause = rng.sample(range(1, n_vars + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        solver = CdclSolver(cnf, restart_base=4)
        solver._reduce_limit = 8
        result = solver.solve()
        assert not result.unknown
        if solver.stats.learned > 40:
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
        polls = [0]

        def interrupt():
            polls[0] += 1
            if polls[0] > 5:  # mid-search, decision levels open
                raise self.Abort()
            return False

        with pytest.raises(self.Abort):
            solver.solve(assumptions=[1, -2], interrupt=interrupt)
        assert not solver.usable
        with pytest.raises(SolverAbortedError):
            solver.solve()
        with pytest.raises(SolverAbortedError):
            solver.add_clause([1, 2])
        with pytest.raises(SolverAbortedError):
            solver.new_var()
        # The formula itself is fine: a fresh solver answers it.
        assert CdclSolver(cnf).solve().satisfiable
