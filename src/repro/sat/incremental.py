"""Incremental, simulation-guided equivalence checking for fingerprint copies.

The fingerprinting flow issues *many* distinct copies of one base design
(one per user), and every copy must be proven functionally equivalent to
the base.  The scratch checker (:func:`repro.sat.cec.check`) rebuilds the
full miter CNF and runs a fresh solver per copy — wasteful, because each
copy differs from the base only inside the fanout cones of a handful of
ODC modifications.  :class:`IncrementalCecSession` exploits that:

1. **Encode the base once.**  The base circuit is Tseitin-encoded a single
   time (stable variable numbering from the compiled IR's interned order)
   into one persistent :class:`~repro.sat.solver.CdclSolver`.

2. **Encode each copy as a delta.**  Copy gates are walked in topological
   order and structurally hashed over (kind, CNF fanin variables); a gate
   whose key already exists — in the base, or in a previously verified
   copy — reuses that variable and contributes *zero* clauses.  Only gates
   inside the modified cones allocate fresh variables.

3. **Discharge clean outputs structurally.**  An output whose copy
   variable equals its base variable is equivalent by construction; no
   miter, no SAT.  Only outputs reached by a modification need proof.

4. **Simulation-guided pre-filtering.**  Before any SAT call, packed
   random vectors are run through the compiled IR on base and copy.  A
   signature mismatch on any output is an immediate NOT_EQUIVALENT with a
   concrete counterexample vector; matching signatures order the remaining
   SAT obligations hardest-last (by dirty-cone size), so cheap proofs land
   first and a budget interruption wastes the least work.

5. **One persistent solver, assumptions, activation literals.**  Each
   copy's miter clauses are gated behind a fresh activation literal and
   solved under assumptions, so learned clauses accumulate across copies
   and outputs; after the copy's verdict the activation literal is
   permanently negated, retiring its miter clauses without touching the
   shared base encoding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..budget import Budget, BudgetClock
from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from ..sim.equivalence import PortMismatchError
from ..sim.simulator import Simulator
from ..sim.vectors import WORD_BITS, random_stimulus, vector_of
from ..hashing import gate_key
from .cec import CecResult, CecVerdict
from .preprocess import INCREMENTAL_SAFE, preprocess
from .solver import CdclSolver, SolverConfig
from . import portfolio as portfolio_mod
from .tseitin import _encode, encode_circuit


class _SolverSink:
    """Duck-typed ``Cnf`` facade over a live solver.

    :func:`repro.sat.tseitin._encode` only calls ``add_clause`` and
    ``new_var``, so this adapter lets the gate encoders write clauses
    straight into the persistent solver instead of a throwaway CNF.
    """

    def __init__(self, solver: CdclSolver) -> None:
        self._solver = solver

    def new_var(self) -> int:
        return self._solver.new_var()

    def add_clause(self, literals: Sequence[int]) -> None:
        self._solver.add_clause(literals)


@dataclass
class SessionStats:
    """Aggregate work accounting across all copies verified by a session."""

    copies: int = 0
    outputs_total: int = 0
    outputs_structural: int = 0
    sat_calls: int = 0
    sim_disproofs: int = 0
    sat_disproofs: int = 0
    undecided: int = 0
    gates_encoded: int = 0
    gates_reused: int = 0


class IncrementalCecSession:
    """Verify many copies of one base circuit against a shared encoding.

    Construct once per base design, then call :meth:`verify` per copy.
    The base must not be structurally mutated while the session lives
    (detected via the circuit version and rejected).  Sessions are not
    thread-safe; the batch flow gives each worker process its own.

    Args:
        base: The golden circuit every copy is checked against.
        n_vectors: Packed random vectors for the simulation pre-filter
            (must be a multiple of 64; signatures cost one word-parallel
            sweep per copy).
        seed: Stimulus seed, so sessions are reproducible.
        solver_config: Inner-loop configuration for the persistent solver
            (default: all speed features on).
        simplify_base: Run the incremental-safe preprocessor (probing +
            subsumption + self-subsuming resolution, **no** variable
            elimination — later copy deltas may reference any base
            variable) over the base encoding before loading the solver.
    """

    def __init__(
        self,
        base: Circuit,
        n_vectors: int = 512,
        seed: int = 2015,
        solver_config: Optional[SolverConfig] = None,
        simplify_base: bool = True,
    ) -> None:
        if n_vectors <= 0 or n_vectors % WORD_BITS:
            raise ValueError(f"n_vectors must be a positive multiple of {WORD_BITS}")
        self.base = base
        self._base_version = base.version
        self.stats = SessionStats()

        with telemetry.span(
            "sat.encode_base", design=base.name, gates=base.n_gates
        ):
            encoding = encode_circuit(base)
            self._base_var: Dict[str, int] = dict(encoding.var_of)
            cnf = encoding.cnf
            if simplify_base:
                # Equivalence-preserving only: the variable numbering must
                # survive because every future delta strashes against it.
                cnf = preprocess(cnf, config=INCREMENTAL_SAFE).cnf
            self._base_cnf = cnf
            self._solver_config = solver_config

            #: Per-base-gate canonical key, for name-stable matching: a
            #: copy gate that keeps its base name and definition maps to
            #: its own base variable even when another base gate shares
            #: the same key (duplicate gates would otherwise alias and
            #: look "modified").
            self._base_key: Dict[str, Tuple] = {}
            self._base_strash: Dict[Tuple, int] = {}
            compiled = compile_circuit(base)
            for gate in compiled.gates_in_order():
                key = self._key(gate.kind, [self._base_var[n] for n in gate.inputs])
                self._base_key[gate.name] = key
                self._base_strash.setdefault(key, self._base_var[gate.name])
            self._load_base()

            self.n_vectors = n_vectors
            self._stimulus = random_stimulus(base.inputs, n_vectors, seed=seed)
            matrix = Simulator(base).run_matrix(self._stimulus)
            self._base_rows: Dict[str, np.ndarray] = {
                net: matrix[compiled.id_of(net)].copy() for net in base.outputs
            }

    # Canonical structural key (commutative fanins sorted), promoted to
    # repro.hashing so the artifact store and campaign ids share it.
    _key = staticmethod(gate_key)

    def _load_base(self) -> None:
        """A fresh persistent solver holding only the base encoding."""
        self.solver = CdclSolver(self._base_cnf, config=self._solver_config)
        self._sink = _SolverSink(self.solver)
        # Structural-hash table over CNF variables: (kind, fanin vars)
        # -> output var.  Seeded from the base; grows with every fresh
        # gate a copy introduces, so later copies share earlier copies'
        # deltas too.
        self._strash: Dict[Tuple, int] = dict(self._base_strash)

    def _snapshot(
        self,
        verdict: CecVerdict,
        counterexample: Optional[Dict[str, int]],
        reason: Optional[str],
        detail: Dict[str, object],
    ) -> CecResult:
        stats = dataclasses.replace(self.solver.stats)
        return CecResult(verdict, counterexample, stats, reason, detail)

    @staticmethod
    def _remaining(
        budget: Optional[Budget],
        clock: Optional[BudgetClock],
        conflicts_spent: int,
        decisions_spent: int,
    ) -> Optional[Budget]:
        """The unspent remainder of ``budget`` for the next solver call."""
        if budget is None or budget.unlimited or clock is None:
            return None
        deadline = None
        if budget.deadline_s is not None:
            deadline = max(0.0, clock.remaining_seconds() or 0.0)
        max_conflicts = None
        if budget.max_conflicts is not None:
            max_conflicts = max(0, budget.max_conflicts - conflicts_spent)
        max_decisions = None
        if budget.max_decisions is not None:
            max_decisions = max(0, budget.max_decisions - decisions_spent)
        return Budget(deadline, max_conflicts, max_decisions)

    #: Dirty-cone size (nets) above which an obligation counts as "hard"
    #: and is raced across portfolio configurations when racing is on.
    PORTFOLIO_CONE_THRESHOLD = 32

    def verify(
        self,
        copy: Circuit,
        budget: Optional[Budget] = None,
        portfolio: int = 0,
    ) -> CecResult:
        """Check one copy against the base; returns a :class:`CecResult`.

        Semantics match :func:`repro.sat.cec.check` (three-valued verdict,
        counterexample as an input-name-to-bit dict, UNDECIDED under an
        exhausted ``budget``), plus a ``detail`` dict recording how the
        outputs were discharged.  The budget bounds this call as a whole:
        conflicts/decisions spent on earlier outputs count against later
        ones.

        ``portfolio`` ≥ 2 races that many solver configurations (in OS
        processes, first verdict wins) on each *hard* obligation — one
        whose dirty cone reaches :data:`PORTFOLIO_CONE_THRESHOLD` nets —
        seeded with the session's full clause database, learned clauses
        included.  Racer work is merged into the session's solver stats
        exactly once; verdicts are unaffected (every configuration is
        sound and complete).
        """
        with telemetry.span(
            "cec.verify", design=copy.name, outputs=len(copy.outputs)
        ) as verify_span:
            result = self._verify(copy, budget, portfolio)
            verify_span.set(
                verdict=result.verdict.value,
                outputs_sat=result.detail.get("outputs_sat"),
                gates_encoded=result.detail.get("gates_encoded"),
                gates_reused=result.detail.get("gates_reused"),
            )
            telemetry.count("cec.copies")
            telemetry.count(f"cec.verdict.{result.verdict.value}")
            return result

    def _verify(
        self,
        copy: Circuit,
        budget: Optional[Budget],
        portfolio: int = 0,
    ) -> CecResult:
        if self.base.version != self._base_version:
            raise ValueError("base circuit was mutated after session construction")
        if set(copy.inputs) != set(self.base.inputs):
            raise PortMismatchError("input sets differ")
        if set(copy.outputs) != set(self.base.outputs):
            raise PortMismatchError("output sets differ")
        if not self.solver.usable:
            # An exception escaped a solve during an earlier copy (a job
            # timeout, say); that solver refuses reuse, so start again
            # from the base encoding, keeping the accumulated counters.
            stats = self.solver.stats
            self._load_base()
            self.solver.stats = stats
        solver = self.solver
        clock = budget.start() if budget is not None and not budget.unlimited else None
        conflicts0 = solver.stats.conflicts
        decisions0 = solver.stats.decisions
        self.stats.copies += 1
        self.stats.outputs_total += len(copy.outputs)
        base_var = self._base_var

        # --- delta encoding: share everything the strash table knows ----- #
        compiled = compile_circuit(copy)
        var_of: Dict[str, int] = {name: base_var[name] for name in copy.inputs}
        encoded = reused = 0
        for gate in compiled.gates_in_order():
            ins = [var_of[n] for n in gate.inputs]
            key = self._key(gate.kind, ins)
            if self._base_key.get(gate.name) == key:
                var = base_var[gate.name]  # unchanged gate, name-stable
            else:
                var = self._strash.get(key)
            if var is None:
                var = solver.new_var()
                _encode(self._sink, gate.kind, var, ins)
                self._strash[key] = var
                encoded += 1
            else:
                reused += 1
            var_of[gate.name] = var
        self.stats.gates_encoded += encoded
        self.stats.gates_reused += reused

        affected = [net for net in copy.outputs if var_of[net] != base_var[net]]
        detail: Dict[str, object] = {
            "engine": "incremental",
            "outputs": len(copy.outputs),
            "outputs_structural": len(copy.outputs) - len(affected),
            "outputs_sat": 0,
            "gates_encoded": encoded,
            "gates_reused": reused,
        }
        self.stats.outputs_structural += len(copy.outputs) - len(affected)
        if not affected:
            return self._snapshot(
                CecVerdict.EQUIVALENT,
                None,
                "all outputs discharged structurally",
                detail,
            )

        # --- simulation pre-filter --------------------------------------- #
        copy_matrix = Simulator(copy).run_matrix(self._stimulus)
        for net in affected:
            diff = self._base_rows[net] ^ copy_matrix[compiled.id_of(net)]
            nonzero = np.nonzero(diff)[0]
            if len(nonzero):
                word = int(nonzero[0])
                bits = int(diff[word])
                index = word * WORD_BITS + ((bits & -bits).bit_length() - 1)
                self.stats.sim_disproofs += 1
                return self._snapshot(
                    CecVerdict.NOT_EQUIVALENT,
                    vector_of(self._stimulus, index),
                    f"simulation signature mismatch on output {net!r}",
                    detail,
                )

        # --- SAT obligations, hardest last ------------------------------- #
        def dirty_cone_size(out_name: str) -> int:
            """Nets in the output's cone carrying a non-base variable.

            Clean nets (variable shared with the base net of the same
            name) prune the walk — a shared variable implies the whole
            cone below it is shared.
            """
            count = 0
            seen = set()
            stack = [out_name]
            while stack:
                name = stack.pop()
                if name in seen:
                    continue
                seen.add(name)
                if var_of[name] == base_var.get(name):
                    continue
                count += 1
                gate = copy.driver(name)
                if gate is not None:
                    stack.extend(gate.inputs)
            return count

        cone_size = {net: dirty_cone_size(net) for net in affected}
        order = sorted(affected, key=cone_size.__getitem__)
        activation = solver.new_var()
        try:
            for position, net in enumerate(order):
                spent_c = solver.stats.conflicts - conflicts0
                spent_d = solver.stats.decisions - decisions0
                if clock is not None:
                    reason = clock.exhausted_reason(spent_c, spent_d)
                    if reason is not None:
                        self.stats.undecided += 1
                        detail["undecided_output"] = net
                        return self._snapshot(
                            CecVerdict.UNDECIDED, None, reason, detail
                        )
                left, right = base_var[net], var_of[net]
                diff_var = solver.new_var()
                for clause in (
                    [-diff_var, left, right],
                    [-diff_var, -left, -right],
                    [diff_var, -left, right],
                    [diff_var, left, -right],
                ):
                    clause.append(-activation)
                    solver.add_clause(clause)
                remaining = self._remaining(budget, clock, spent_c, spent_d)
                if (
                    portfolio >= 2
                    and cone_size[net] >= self.PORTFOLIO_CONE_THRESHOLD
                ):
                    outcome = portfolio_mod.race(
                        solver.n_vars,
                        solver.export_clauses(),
                        assumptions=[activation, diff_var],
                        configs=portfolio_mod.configs_for(portfolio),
                        budget=remaining,
                    )
                    # Fold all racers' counters into the session's stats
                    # exactly once (rates recompute from raw counters).
                    solver.stats.merge(outcome.stats)
                    detail["portfolio_races"] = (
                        int(detail.get("portfolio_races", 0)) + 1
                    )
                    unknown, satisfiable = outcome.unknown, outcome.satisfiable
                    reason = outcome.reason
                    model = outcome.model
                else:
                    result = solver.solve(
                        assumptions=[activation, diff_var], budget=remaining
                    )
                    unknown, satisfiable = result.unknown, result.satisfiable
                    reason = result.reason
                    model = result.model
                self.stats.sat_calls += 1
                detail["outputs_sat"] = position + 1
                if unknown:
                    self.stats.undecided += 1
                    detail["undecided_output"] = net
                    return self._snapshot(
                        CecVerdict.UNDECIDED, None, reason, detail
                    )
                if satisfiable:
                    counterexample = {
                        name: int(model.get(base_var[name], False))
                        for name in self.base.inputs
                    }
                    self.stats.sat_disproofs += 1
                    return self._snapshot(
                        CecVerdict.NOT_EQUIVALENT,
                        counterexample,
                        f"SAT counterexample on output {net!r}",
                        detail,
                    )
            return self._snapshot(
                CecVerdict.EQUIVALENT,
                None,
                f"{len(order)} miter obligations proven UNSAT",
                detail,
            )
        finally:
            # Retire this copy's miter clauses for good; the learned
            # clauses they produced remain valid for future copies.  An
            # aborted solver is skipped so the original exception
            # propagates; the next verify rebuilds it.
            if solver.usable:
                solver.add_clause([-activation])

    def verify_many(
        self,
        copies: Sequence[Circuit],
        budget: Optional[Budget] = None,
        portfolio: int = 0,
    ) -> List[CecResult]:
        """Verify copies in order (each bounded by its own ``budget``)."""
        return [
            self.verify(copy, budget=budget, portfolio=portfolio)
            for copy in copies
        ]
