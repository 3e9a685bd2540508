"""The raw reference miter the equivalence differentials compare with.

:func:`repro.sat.check` and :func:`repro.sat.sat_equivalent` prove a pair
through a one-copy CEC session, so comparing a session with them compares
the engine with itself.  The reference shares only the Tseitin encoder and
the CDCL solver with a session: :func:`repro.sat.cec.build_miter` solved
as it is in one :class:`~repro.sat.solver.CdclSolver` call, with no
simulation, no sweep and no structural shortcut, and a counterexample read
off the primary-input variables of the model.
"""

from __future__ import annotations

from typing import Optional

from repro.budget import Budget
from repro.netlist.circuit import Circuit
from repro.sat.cec import CecResult, CecVerdict, build_miter
from repro.sat.solver import CdclSolver


def miter_check(left: Circuit, right: Circuit, budget: Optional[Budget] = None) -> CecResult:
    """The raw miter's verdict on ``left`` and ``right``."""
    encoding = build_miter(left, right)
    result = CdclSolver(encoding.cnf).solve(budget=budget)
    if result.unknown:
        return CecResult(CecVerdict.UNDECIDED, None, result.stats, result.reason)
    if not result.satisfiable:
        return CecResult(CecVerdict.EQUIVALENT, None, result.stats)
    counterexample = {
        net: int(result.model.get(encoding.var_of[net], False)) for net in left.inputs
    }
    return CecResult(CecVerdict.NOT_EQUIVALENT, counterexample, result.stats)
