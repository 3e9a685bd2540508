"""Incremental, simulation-guided equivalence checking: the one CEC engine.

The fingerprinting flow issues *many* distinct copies of one base design
(one per user), and every copy must be proven functionally equivalent to
the base.  Each copy differs from the base only inside the fanout cones
of a handful of ODC modifications, so rebuilding a full miter per copy
would waste almost all of its work.  :class:`IncrementalCecSession`
exploits that, and every SAT verdict the package computes goes through
one: the verification ladder's SAT tier, the batch flow, and
:func:`check` / :func:`sat_equivalent`, which prove one pair through a
one-copy session (so ``repro-fp audit`` and the SDC slot verification
share the engine too):

1. **Encode the base once.**  The base circuit is Tseitin-encoded a single
   time (stable variable numbering from the compiled IR's interned order)
   and loaded as it is, with no CNF rewriting, so a solve's root trail
   holds only the encoding's own units (constant gates).  Every copy's
   :class:`~repro.sat.solver.CdclSolver` starts from that base encoding:
   the first copy's solver reads it, and every later copy's is a
   :meth:`~repro.sat.solver.CdclSolver.copy` of a template solver that
   read it once and never solves.  The base's simulation signature
   (packed random vectors through the compiled IR) is kept for every
   net.

2. **Simulate the copy first.**  The copy runs through the same vectors
   before anything is encoded.  A signature mismatch on any output is an
   immediate NOT_EQUIVALENT with a concrete counterexample vector, so no
   solve is spent on a copy that simulation already refutes.

3. **Encode each copy as a delta, sweeping as it goes.**  Copy gates are
   walked in topological order and structurally hashed over (kind, CNF
   fanin variables); a gate whose key already exists — in the base, or
   earlier in the same copy — reuses that variable and contributes
   *zero* clauses.  A gate that needs a fresh variable and has a
   same-named base gate with an identical signature is a candidate merge
   point: two solves prove the two variables equal, and the gate then
   takes the base variable, so everything downstream hashes onto the
   base again.  Each solve asks for one implication's counterexample
   under the plain assumption pair ``(v, -b)``, then ``(-v, b)``, which
   the solver takes at one decision level; the sweep adds no variable
   and no clause.  It is cone-bounded
   (``CdclSolver.solve(inputs=..., cone=...)``): every variable keeps a
   fanin-cone bitmask (its own bit, its Tseitin auxiliaries' bits and
   its fanins' masks), the solver branches only on the primary inputs
   in ``cone[v] | cone[b]``, assigns no variable outside it, and answers
   SAT once those inputs are all assigned.  A satisfiable solve leaves
   the gate unmerged.  ODC modifications are masked, so the sweep
   usually closes every modified cone within a few gates of the
   modification.

4. **Discharge clean outputs structurally.**  An output whose copy
   variable equals its base variable is equivalent by construction; no
   miter, no output obligation.  After the sweep that is usually every
   output.

5. **One solver per copy, assumptions per output.**  An output
   left with a copy variable gets a difference detector in the copy's
   solver and is solved under the assumption that it fires, hardest last
   (by dirty-cone size), so cheap proofs land first and a budget
   interruption wastes the least work.  Sweep solves and output
   obligations share the copy's budget, and an exhausted solve of either
   kind makes the copy UNDECIDED.  The next copy starts from the base
   encoding again, so a verdict depends only on the base, the copy and
   the budget — never on which copies the session verified before.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..budget import Budget, BudgetClock
from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from ..sim.equivalence import _check_ports
from ..sim.simulator import Simulator
from ..sim.vectors import WORD_BITS, random_stimulus, vector_of
from ..hashing import gate_key
from .cec import CecResult, CecVerdict
from .solver import CdclSolver
from .tseitin import _encode, encode_circuit

#: Packed random vectors behind the simulation pre-filter and the sweep's
#: candidate merge points (a multiple of the 64-bit word).
SESSION_VECTORS = 2048
#: Stimulus seed, so sessions are reproducible.
SESSION_SEED = 2015


def _cone_mask(cone: List[int], var: int, aux: Iterable[int], ins: Iterable[int]) -> int:
    """The fanin-cone bitmask of a gate with output ``var``: its own bit,
    its Tseitin auxiliaries' bits and its fanins' masks."""
    mask = 1 << var
    for extra in aux:
        mask |= 1 << extra
    for fanin in ins:
        mask |= cone[fanin]
    return mask


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
    points_swept: int = 0
    points_merged: int = 0
    points_refuted: int = 0
    sweep_propagations: int = 0
    sweep_inputs: int = 0


class IncrementalCecSession:
    """Verify many copies of one base circuit against a shared encoding.

    Construct once per base design, then call :meth:`verify` per copy.
    The base must not be structurally mutated while the session lives
    (detected via the circuit version and rejected).  Sessions are not
    thread-safe; the batch flow gives each worker process its own.

    Signatures come from :data:`SESSION_VECTORS` packed random vectors
    drawn with :data:`SESSION_SEED` (one word-parallel simulation per
    copy).

    Args:
        base: The golden circuit every copy is checked against.
    """

    def __init__(self, base: Circuit) -> None:
        self.base = base
        self._base_version = base.version
        self.stats = SessionStats()

        with telemetry.span(
            "sat.encode_base", design=base.name, gates=base.n_gates
        ):
            encoding = encode_circuit(base)
            self._base_var: Dict[str, int] = dict(encoding.var_of)
            self._base_cnf = encoding.cnf

            #: Per-base-gate canonical key, for name-stable matching: a
            #: copy gate that keeps its base name and definition maps to
            #: its own base variable even when another base gate shares
            #: the same key (duplicate gates would otherwise alias and
            #: look "modified").
            self._base_key: Dict[str, Tuple] = {}
            self._base_strash: Dict[Tuple, int] = {}
            #: Fanin cone of every base variable as a bitmask over
            #: variables (bit ``v`` for variable ``v``), indexed by
            #: variable: what a sweep solve may assign.  The encoding
            #: numbers the primary inputs 1..n in ``base.inputs`` order,
            #: so a mask's low bits also name the inputs a solve branches
            #: on; an auxiliary's entry is its gate's mask.
            n_inputs = len(base.inputs)
            self._input_bits = (1 << (n_inputs + 1)) - 2
            cone = self._base_cone = [0] * (self._base_cnf.n_vars + 1)
            for var in range(1, n_inputs + 1):
                cone[var] = 1 << var
            compiled = compile_circuit(base)
            for gate in compiled.gates_in_order():
                var = self._base_var[gate.name]
                ins = [self._base_var[n] for n in gate.inputs]
                key = self._key(gate.kind, ins)
                self._base_key[gate.name] = key
                self._base_strash.setdefault(key, var)
                aux = encoding.aux_of.get(var, ())
                cone[var] = _cone_mask(cone, var, aux, ins)
                for extra in aux:
                    cone[extra] = cone[var]
            #: The copy's solver.  The first copy takes it as built; every
            #: later copy restores the base from ``_template``, a solver
            #: holding only the base encoding that nothing solves on, built
            #: the first time the base must be restored (never for a
            #: one-copy session).
            self.solver = CdclSolver(self._base_cnf)
            self._template: Optional[CdclSolver] = None

            self._stimulus = random_stimulus(base.inputs, SESSION_VECTORS, seed=SESSION_SEED)
            matrix = Simulator(base).run_matrix(self._stimulus)
            self._base_rows: Dict[str, np.ndarray] = dict(zip(compiled.names, matrix))

    # Canonical structural key (commutative fanins sorted), promoted to
    # repro.hashing so the artifact store and campaign ids share it.
    _key = staticmethod(gate_key)

    def _cone_inputs(self, mask: int) -> List[int]:
        """The primary-input variables of a cone mask, in input order."""
        bits = bin(mask & self._input_bits)[:1:-1]
        return [var for var, bit in enumerate(bits) if bit == "1"]

    def _restore_base(self) -> None:
        """Give the session a fresh solver holding only the base encoding:
        a copy of the template, which the first restore builds."""
        if self._template is None:
            self._template = CdclSolver(self._base_cnf)
        self.solver = self._template.copy()

    def _snapshot(
        self,
        verdict: CecVerdict,
        counterexample: Optional[Dict[str, int]],
        reason: Optional[str],
        detail: Dict[str, Any],
    ) -> CecResult:
        """The copy's result; its ``detail`` counts add to the session's."""
        totals = self.stats
        totals.outputs_structural += detail["outputs_structural"]
        totals.sat_calls += detail["outputs_sat"]
        totals.gates_encoded += detail["gates_encoded"]
        totals.gates_reused += detail["gates_reused"]
        totals.points_swept += detail["points_swept"]
        totals.points_merged += detail["points_merged"]
        totals.points_refuted += detail["points_refuted"]
        totals.sweep_propagations += detail["sweep_propagations"]
        totals.sweep_inputs += detail["sweep_inputs"]
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

    def verify(self, copy: Circuit, budget: Optional[Budget] = None) -> CecResult:
        """Check one copy against the base; returns a :class:`CecResult`.

        The verdict is three-valued (UNDECIDED under an exhausted
        ``budget``), a counterexample maps input names to bits, and a
        ``detail`` dict records how the outputs were discharged, how many
        points the sweep tried, merged and refuted, and what its solves
        cost.  The budget bounds this call as a whole: the
        conflicts/decisions of the sweep's solves and of earlier outputs
        count against every later solve.  Each output obligation left
        after the sweep is solved on the copy's solver, hardest last.
        """
        with telemetry.span(
            "cec.verify", design=copy.name, outputs=len(copy.outputs)
        ) as verify_span:
            # Every copy starts from the base encoding alone (a copy of the
            # template after the first), so a verdict never depends on the
            # copies verified before; a solver an exception escaped from (a
            # job timeout, say) is replaced the same way.  The counters
            # carry over to the new solver.
            previous = self.solver
            rebuilt = not previous.usable or previous.n_vars != self._base_cnf.n_vars
            if rebuilt:
                self._restore_base()
                self.solver.stats = previous.stats
                telemetry.count("sat.incremental.rebuilds")
            result = self._verify(copy, budget)
            detail = result.detail
            verify_span.set(
                verdict=result.verdict.value,
                rebuilt=rebuilt,
                outputs_sat=detail["outputs_sat"],
                gates_encoded=detail["gates_encoded"],
                gates_reused=detail["gates_reused"],
                points_swept=detail["points_swept"],
                points_merged=detail["points_merged"],
            )
            telemetry.count("cec.copies")
            telemetry.count(f"cec.verdict.{result.verdict.value}")
            telemetry.count("sat.incremental.points_swept", detail["points_swept"])
            telemetry.count("sat.incremental.points_merged", detail["points_merged"])
            return result

    def _verify(self, copy: Circuit, budget: Optional[Budget]) -> CecResult:
        if self.base.version != self._base_version:
            raise ValueError("base circuit was mutated after session construction")
        _check_ports(self.base, copy)
        solver = self.solver
        clock = budget.start() if budget is not None and not budget.unlimited else None
        conflicts0 = solver.stats.conflicts
        decisions0 = solver.stats.decisions
        self.stats.copies += 1
        self.stats.outputs_total += len(copy.outputs)
        base_var = self._base_var
        base_rows = self._base_rows
        detail: Dict[str, Any] = {
            "engine": "incremental",
            "outputs": len(copy.outputs),
            "outputs_structural": 0,
            "outputs_sat": 0,
            "gates_encoded": 0,
            "gates_reused": 0,
            "points_swept": 0,
            "points_merged": 0,
            "points_refuted": 0,
            "sweep_propagations": 0,
            "sweep_inputs": 0,
        }

        def rest() -> Tuple[Optional[str], Optional[Budget]]:
            """Why the copy's budget is spent (``None`` while it is not),
            and what is left of it for the next solve."""
            spent_c = solver.stats.conflicts - conflicts0
            spent_d = solver.stats.decisions - decisions0
            reason = clock.exhausted_reason(spent_c, spent_d) if clock is not None else None
            return reason, self._remaining(budget, clock, spent_c, spent_d)

        def undecided(key: str, net: str, reason: Optional[str]) -> CecResult:
            self.stats.undecided += 1
            detail[key] = net
            return self._snapshot(CecVerdict.UNDECIDED, None, reason, detail)

        # --- simulation pre-filter, before any solve --------------------- #
        compiled = compile_circuit(copy)
        copy_matrix = Simulator(copy).run_matrix(self._stimulus)
        for net in copy.outputs:
            diff = base_rows[net] ^ copy_matrix[compiled.id_of(net)]
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

        # --- delta encoding and sweep: share every gate the base has ----- #
        var_of: Dict[str, int] = {name: base_var[name] for name in copy.inputs}
        # (kind, fanin vars) -> CNF var: the base's gates, then this copy's.
        strash = dict(self._base_strash)
        cone = self._base_cone[:]  # plus each fresh gate's variable and auxiliaries
        for row, gate in enumerate(compiled.gates_in_order(), len(copy.inputs)):
            ins = [var_of[n] for n in gate.inputs]
            key = self._key(gate.kind, ins)
            if self._base_key.get(gate.name) == key:
                var = base_var[gate.name]  # unchanged gate, name-stable
            else:
                var = strash.get(key)
            if var is None:
                var = solver.new_var()
                aux = _encode(solver, gate.kind, var, ins)
                mask = _cone_mask(cone, var, aux, ins)
                cone += [mask] * (1 + len(aux))
                detail["gates_encoded"] += 1
                twin = base_var.get(gate.name)
                if twin is not None and np.array_equal(base_rows[gate.name], copy_matrix[row]):
                    # Same signature as its base twin: sweep the point, and
                    # merge it when both implications are UNSAT.
                    detail["points_swept"] += 1
                    mask |= cone[twin]
                    inputs = self._cone_inputs(mask)
                    detail["sweep_inputs"] += len(inputs)
                    for assumptions in ((var, -twin), (-var, twin)):
                        reason, remaining = rest()
                        if reason is not None:
                            return undecided("undecided_point", gate.name, reason)
                        propagations = solver.stats.propagations
                        result = solver.solve(
                            assumptions, budget=remaining, inputs=inputs, cone=mask
                        )
                        detail["sweep_propagations"] += (
                            solver.stats.propagations - propagations
                        )
                        if result.unknown:
                            return undecided("undecided_point", gate.name, result.reason)
                        if result.satisfiable:
                            detail["points_refuted"] += 1
                            break
                    else:
                        detail["points_merged"] += 1
                        var = twin
                strash[key] = var
            else:
                detail["gates_reused"] += 1
            var_of[gate.name] = var

        affected = [net for net in copy.outputs if var_of[net] != base_var[net]]
        detail["outputs_structural"] = len(copy.outputs) - len(affected)
        if not affected:
            return self._snapshot(
                CecVerdict.EQUIVALENT,
                None,
                "all outputs discharged structurally",
                detail,
            )

        # --- output obligations, hardest last ---------------------------- #
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

        order = sorted(affected, key=dirty_cone_size)
        for position, net in enumerate(order):
            reason, remaining = rest()
            if reason is not None:
                return undecided("undecided_output", net, reason)
            # diff_var <-> (left XOR right); assuming it asks for a vector
            # on which this output differs.
            left, right = base_var[net], var_of[net]
            diff_var = solver.new_var()
            for clause in (
                [-diff_var, left, right],
                [-diff_var, -left, -right],
                [diff_var, -left, right],
                [diff_var, left, -right],
            ):
                solver.add_clause(clause)
            result = solver.solve(assumptions=[diff_var], budget=remaining)
            detail["outputs_sat"] = position + 1
            if result.unknown:
                return undecided("undecided_output", net, result.reason)
            if result.satisfiable:
                counterexample = {
                    name: int(result.model.get(base_var[name], False))
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


def check(left: Circuit, right: Circuit, budget: Optional[Budget] = None) -> CecResult:
    """Budgeted equivalence check of one pair through a one-copy session.

    Builds an :class:`IncrementalCecSession` over ``left`` and verifies
    ``right`` in it.  With a ``budget``, a hard pair yields
    :data:`CecVerdict.UNDECIDED` instead of running unbounded — the caller
    decides what that means.  A budget's deadline covers the whole call:
    its clock starts here, before the session encodes and simulates the
    base, the copy gets only the time that remains, and an UNDECIDED
    verdict names the caller's limits, not that remainder.  A pair with
    identical structure is discharged without a solve (every output
    hashes onto the base).
    """
    clock = budget.start() if budget is not None and budget.deadline_s is not None else None
    session = IncrementalCecSession(left)
    if clock is None:
        return session.verify(right, budget=budget)
    rest = dataclasses.replace(budget, deadline_s=max(0.0, clock.remaining_seconds()))
    result = session.verify(right, budget=rest)
    if result.verdict is CecVerdict.UNDECIDED:
        stats = result.stats
        reason = clock.exhausted_reason(stats.conflicts, stats.decisions)
        result = dataclasses.replace(result, reason=reason or result.reason)
    return result


def sat_equivalent(left: Circuit, right: Circuit) -> CecResult:
    """Complete (unbudgeted) equivalence check; always definitive."""
    return check(left, right)
