"""Combinational equivalence checking (CEC): verdicts and the raw miter.

The verdict types every SAT-based check returns (:class:`CecVerdict`,
:class:`CecResult`), and :func:`build_miter`, the classic miter: both
circuits share primary-input variables, each pair of same-named outputs
feeds an XOR, and the OR of all XORs is asserted true.  UNSAT proves
equivalence; a model is a counterexample vector.

Every verdict the package computes comes from one engine, the CEC
session of :mod:`repro.sat.incremental`, whose
:func:`~repro.sat.incremental.check` proves one pair through a one-copy
session; a copy with the base's structure hashes onto the base gate by
gate there and is cleared without a solve.  :func:`build_miter` is kept
as the raw reference miter: solved as it is by one
:class:`~repro.sat.solver.CdclSolver` call, it shares only the Tseitin
encoder and the solver with a session, which is what the differential
tests compare the session with.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..netlist.circuit import Circuit
from ..sim.equivalence import _check_ports
from .solver import SolverStats
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


def build_miter(left: Circuit, right: Circuit) -> CircuitEncoding:
    """Encode the miter of two port-compatible circuits.

    The returned encoding has an extra final variable (the last allocated
    one) asserted true iff some output pair differs.
    """
    _check_ports(left, right)
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
