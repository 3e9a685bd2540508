"""Unit tests for the SatELite-style CNF preprocessor (`repro.sat.preprocess`).

Covers each simplification in isolation (BVE / subsumption / SSR /
failed-literal probing, each driven as one round on a clause store), the
frozen-variable contract, the ``eliminate`` switch, the probe limit,
model reconstruction, and the equisatisfiability of the whole pipeline
against random CNFs.
"""

from __future__ import annotations

import importlib
import random

from repro.sat import (
    Cnf,
    PreprocessStats,
    Reconstruction,
    SatStatus,
    preprocess,
    preprocess_for_solve,
    solve_cnf,
)
from repro.sat.preprocess import (
    _eliminate_round,
    _probe_round,
    _Store,
    _subsumption_round,
    _to_external,
    _to_internal,
)

# The module, not the function ``repro.sat`` re-exports under its name.
preprocess_module = importlib.import_module("repro.sat.preprocess")


def make_cnf(n_vars, clauses):
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(list(clause))
    return cnf


def as_assignment(model, n_vars):
    """Model dict -> the 1-indexed bool list `Cnf.evaluate` wants."""
    return [False] + [bool(model.get(v, False)) for v in range(1, n_vars + 1)]


def make_store(n_vars, clauses):
    """The clause store one simplification round works on."""
    return _Store(n_vars, ([_to_internal(l) for l in c] for c in clauses))


def store_clauses(store):
    """The store's live clauses, DIMACS-signed and sorted."""
    return sorted(
        sorted(_to_external(l) for l in c) for c in store.clauses if c is not None
    )


class TestBve:
    def test_pure_literal_vanishes(self):
        # var 1 occurs only positively: zero resolvents, free elimination.
        store = make_store(3, [[1, 2], [1, 3], [2, 3]])
        stats = PreprocessStats()
        assert _eliminate_round(store, set(), Reconstruction(), stats, None)
        assert stats.eliminated_vars >= 1
        assert all(1 not in c and -1 not in c for c in store_clauses(store))

    def test_frozen_variables_block_elimination(self):
        """Freezing every variable pins the clause set: BVE may not
        resolve any frozen variable away."""
        clauses = [[1, 2], [1, 3], [2, 3]]
        store = make_store(3, clauses)
        stats = PreprocessStats()
        recon = Reconstruction()
        assert not _eliminate_round(store, {1, 2, 3}, recon, stats, None)
        assert stats.eliminated_vars == 0
        assert len(recon) == 0
        assert store_clauses(store) == clauses

    def test_reconstructed_model_satisfies_original(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-2, 4], [3, 4]])
        result = preprocess(cnf)
        # The simplified CNF is always solvable directly — root units
        # survive as unit clauses — whatever `status` says.
        sat = solve_cnf(result.cnf)
        assert sat.status is SatStatus.SAT
        model = result.extend_model(sat.model)
        assert cnf.evaluate(as_assignment(model, cnf.n_vars))

    def test_incremental_safe_never_eliminates(self):
        """``eliminate=False`` (the incremental session's base) keeps
        every variable, even a pure one."""
        cnf = make_cnf(3, [[1, 2], [1, 3], [2, 3]])
        result = preprocess(cnf, eliminate=False)
        assert result.stats.eliminated_vars == 0
        assert len(result.reconstruction) == 0


class TestSubsumption:
    def test_superset_clause_deleted(self):
        store = make_store(3, [[1, 2], [1, 2, 3]])
        stats = PreprocessStats()
        assert _subsumption_round(store, stats)
        assert stats.subsumed_clauses == 1
        assert stats.strengthened_literals == 0
        assert store_clauses(store) == [[1, 2]]

    def test_self_subsuming_resolution_strengthens(self):
        # [1, 2] resolved with [-1, 2, 3] on var 1 gives [2, 3] ⊂ [-1, 2, 3].
        store = make_store(3, [[1, 2], [-1, 2, 3]])
        stats = PreprocessStats()
        assert _subsumption_round(store, stats)
        assert stats.strengthened_literals == 1
        assert stats.subsumed_clauses == 0
        assert store_clauses(store) == [[1, 2], [2, 3]]


class TestProbing:
    def test_failed_literal_becomes_root_unit(self):
        # Assuming 1 propagates 2 and 3, which conflict: ¬1 is a fact.
        store = make_store(3, [[-1, 2], [-1, 3], [-2, -3], [1, 2]])
        stats = PreprocessStats()
        assert _probe_round(store, [preprocess_module.PROBE_LIMIT], stats, None)
        assert stats.failed_literals >= 1
        assert -1 in [_to_external(unit) for unit in store.units]

    def test_probe_budget_bounds_work(self, monkeypatch):
        monkeypatch.setattr(preprocess_module, "PROBE_LIMIT", 0)
        cnf = make_cnf(3, [[-1, 2], [-1, 3], [-2, -3], [1, 2]])
        result = preprocess(cnf, frozen=[1, 2, 3])
        assert result.stats.probes == 0
        assert result.stats.probe_propagations == 0


class TestStatus:
    def test_refuted_during_preprocessing(self):
        cnf = make_cnf(2, [[1], [-1, 2], [-2], [1, 2]])
        result = preprocess(cnf)
        assert result.status is False
        assert solve_cnf(result.cnf).status is SatStatus.UNSAT

    def test_satisfied_outright(self):
        cnf = make_cnf(2, [[1], [2]])
        result = preprocess(cnf)
        assert result.status is True
        model = result.extend_model({1: True, 2: True})
        assert cnf.evaluate(as_assignment(model, 2))

    def test_units_survive_as_clauses(self):
        """Root facts stay in the output CNF so a solver sees them."""
        cnf = make_cnf(2, [[1], [-1, 2], [2, 1]])
        result = preprocess(cnf, frozen=[1, 2])
        lits = {lit for clause in result.cnf.clauses for lit in clause}
        assert 1 in lits and 2 in lits


class TestForSolve:
    def test_assumptions_baked_in_and_frozen(self):
        cnf = make_cnf(3, [[1, 2], [-2, 3]])
        result = preprocess_for_solve(cnf, assumptions=[-1])
        # -1 forces 2 forces 3; all three are facts now.
        assert result.status in (True, None)
        sat = solve_cnf(result.cnf)
        assert sat.status is SatStatus.SAT
        model = result.extend_model(sat.model)
        assert model[2] and model[3]
        assert cnf.evaluate(as_assignment(model, 3))

    def test_conflicting_assumptions_refute(self):
        cnf = make_cnf(2, [[1, 2]])
        result = preprocess_for_solve(cnf, assumptions=[-1, -2])
        assert result.status is False


class TestEquisatisfiableFuzz:
    def test_random_cnfs_agree_with_direct_solve(self):
        rng = random.Random(2015)
        for trial in range(40):
            n_vars = rng.randint(3, 12)
            n_clauses = rng.randint(2, 4 * n_vars)
            clauses = []
            for _ in range(n_clauses):
                width = rng.randint(1, 3)
                lits = rng.sample(range(1, n_vars + 1), min(width, n_vars))
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in lits])
            cnf = make_cnf(n_vars, clauses)
            frozen = rng.sample(range(1, n_vars + 1), rng.randint(0, 2))
            direct = solve_cnf(cnf)
            result = preprocess(cnf, frozen=frozen)
            sat = solve_cnf(result.cnf)
            simplified_sat = sat.status is SatStatus.SAT
            if result.status is not None:
                assert result.status == simplified_sat, (
                    f"trial {trial}: status disagrees with solver"
                )
            assert simplified_sat == (
                direct.status is SatStatus.SAT
            ), f"trial {trial}: verdict flipped"
            if simplified_sat:
                model = result.extend_model(sat.model)
                assert cnf.evaluate(as_assignment(model, n_vars)), (
                    f"trial {trial}: reconstructed model fails original CNF"
                )
