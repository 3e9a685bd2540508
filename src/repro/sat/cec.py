"""Miter-based combinational equivalence checking (CEC).

Builds the classic miter: both circuits share primary-input variables,
each pair of same-named outputs feeds an XOR, and the OR of all XORs is
asserted true.  UNSAT proves equivalence; a model is a counterexample
vector.  This is the complete check used when circuits are too wide for
exhaustive simulation, mirroring the role of an industrial CEC step that
the paper's "without changing the functionality" claim rests on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..budget import Budget
from ..hashing import COMMUTATIVE_KINDS
from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from ..sim.equivalence import PortMismatchError
from .preprocess import preprocess
from .solver import CdclSolver, SolverStats
from .tseitin import CircuitEncoding, _encode_xor2, encode_circuit


class CecVerdict(enum.Enum):
    """Three-valued CEC outcome."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNDECIDED = "undecided"  # budget spent before the miter was resolved


@dataclass(frozen=True)
class CecResult:
    """Verdict of a SAT-based equivalence check.

    ``verdict`` is definitive for EQUIVALENT / NOT_EQUIVALENT; UNDECIDED
    means the solve budget ran out first (``reason`` names the spent limit)
    and the caller should fall back to another verification tier.
    """

    verdict: CecVerdict
    counterexample: Optional[Dict[str, int]]
    stats: SolverStats
    reason: Optional[str] = None
    #: Optional engine-specific breakdown (the incremental session reports
    #: how many outputs were discharged structurally, by simulation, or by
    #: SAT, and how much of the copy's encoding was shared with the base).
    detail: Optional[Dict[str, object]] = None

    @property
    def equivalent(self) -> bool:
        """True only for a *proven* equivalence."""
        return self.verdict is CecVerdict.EQUIVALENT

    @property
    def decided(self) -> bool:
        """True when the check reached a definitive verdict."""
        return self.verdict is not CecVerdict.UNDECIDED


def structurally_identical(left: Circuit, right: Circuit) -> bool:
    """Canonical structural hashing over both circuits at once.

    Interns every net of both circuits into one congruence table keyed by
    ``(kind, fanin classes)`` — fanins sorted for commutative kinds, primary
    inputs keyed by name — and compares the output classes.  A ``True``
    verdict is a *proof* of equivalence (same outputs computed by literally
    the same gate structure); ``False`` just means a miter is needed.  Used
    as the no-SAT fast path for copies with zero surviving modifications.
    """
    if set(left.inputs) != set(right.inputs):
        return False
    if set(left.outputs) != set(right.outputs):
        return False
    table: Dict[tuple, int] = {}

    def output_classes(circuit: Circuit) -> Dict[str, int]:
        compiled = compile_circuit(circuit)
        cls: Dict[str, int] = {}
        for name in circuit.inputs:
            key = ("pi", name)
            cls[name] = table.setdefault(key, len(table))
        for gate in compiled.gates_in_order():
            ins = tuple(cls[n] for n in gate.inputs)
            if gate.kind in COMMUTATIVE_KINDS:
                ins = tuple(sorted(ins))
            key = (gate.kind, ins)
            cls[gate.name] = table.setdefault(key, len(table))
        return {net: cls[net] for net in circuit.outputs}

    return output_classes(left) == output_classes(right)


def build_miter(left: Circuit, right: Circuit) -> CircuitEncoding:
    """Encode the miter of two port-compatible circuits.

    The returned encoding has an extra final variable (the last allocated
    one) asserted true iff some output pair differs.
    """
    if set(left.inputs) != set(right.inputs):
        raise PortMismatchError("input sets differ")
    if set(left.outputs) != set(right.outputs):
        raise PortMismatchError("output sets differ")
    encoding = CircuitEncoding()
    shared = left.inputs
    encode_circuit(left, encoding, prefix="L::", shared_nets=shared)
    encode_circuit(right, encoding, prefix="R::", shared_nets=shared)
    cnf = encoding.cnf
    difference_lits = []
    for net in left.outputs:
        left_var = encoding.variable(net if net in shared else "L::" + net)
        right_var = encoding.variable(net if net in shared else "R::" + net)
        if left_var == right_var:
            continue  # feed-through output shared by both circuits
        diff = cnf.new_var()
        _encode_xor2(cnf, diff, left_var, right_var)
        difference_lits.append(diff)
    if difference_lits:
        cnf.add_clause(difference_lits)
    else:
        # No comparable outputs differ structurally: force UNSAT by adding
        # a contradictory pair on a fresh variable.
        fresh = cnf.new_var()
        cnf.add_clause([fresh])
        cnf.add_clause([-fresh])
    return encoding


def check(
    left: Circuit,
    right: Circuit,
    budget: Optional[Budget] = None,
    *,
    simplify: bool = True,
) -> CecResult:
    """Budgeted equivalence check via the miter; SAT model = mismatch.

    With a ``budget``, a hard miter yields :data:`CecVerdict.UNDECIDED`
    instead of running unbounded — the caller decides what that means
    (the verification ladder falls back to random simulation).

    Structurally identical pairs (see :func:`structurally_identical`) are
    discharged without building a miter or touching the solver at all —
    the common case for fingerprint requests whose modifications were all
    pruned away.

    ``simplify`` runs the SatELite-style preprocessor
    (:mod:`repro.sat.preprocess`) on the miter before solving — primary
    inputs are frozen so counterexamples read straight off the extended
    model; the differential suite pins verdicts identical either way.

    A ``budget`` deadline covers the whole call: its clock starts here,
    preprocessing stops once it has passed, and the solver gets only the
    time that remains.
    """
    clock = budget.start() if budget is not None and budget.deadline_s is not None else None
    if structurally_identical(left, right):
        return CecResult(
            CecVerdict.EQUIVALENT,
            None,
            SolverStats(),
            reason="structurally identical under canonical hashing",
        )
    encoding = build_miter(left, right)
    pre = None
    cnf = encoding.cnf
    if simplify:
        frozen = [encoding.var_of[net] for net in left.inputs]
        pre = preprocess(cnf, frozen=frozen, clock=clock)
        if pre.status is False:
            return CecResult(
                CecVerdict.EQUIVALENT,
                None,
                SolverStats(),
                reason="refuted during preprocessing",
            )
        cnf = pre.cnf
    solve_budget = budget
    if clock is not None:
        solve_budget = replace(budget, deadline_s=max(0.0, clock.remaining_seconds()))
    result = CdclSolver(cnf).solve(budget=solve_budget)
    if result.unknown:
        reason = result.reason
        if clock is not None:
            # Name the caller's limits, not the remainder the solver got.
            stats = result.stats
            reason = clock.exhausted_reason(stats.conflicts, stats.decisions) or reason
        return CecResult(CecVerdict.UNDECIDED, None, result.stats, reason)
    if not result.satisfiable:
        return CecResult(CecVerdict.EQUIVALENT, None, result.stats)
    model = result.model if pre is None else pre.extend_model(result.model)
    counterexample = {
        net: int(model.get(encoding.var_of[net], False)) for net in left.inputs
    }
    return CecResult(CecVerdict.NOT_EQUIVALENT, counterexample, result.stats)


def sat_equivalent(left: Circuit, right: Circuit) -> CecResult:
    """Complete (unbudgeted) equivalence check; always definitive."""
    return check(left, right, budget=None)
