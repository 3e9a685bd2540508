"""Catalog auditing: formally verify every fingerprint variant.

The modification catalogue is constructed from local algebraic rules that
are proven correct in general (see :mod:`repro.fingerprint.modifications`)
— but an IP owner shipping thousands of copies wants machine-checked
assurance on *their* design.  ``audit_catalog`` applies every variant of
every slot in isolation and verifies the result against the golden design
(exhaustive simulation when the input count allows, SAT-based CEC
otherwise), returning a per-variant report.  A clean audit means every
point of the fingerprint space is functionality-preserving, because
modifications compose (each slot edit is independent and the soundness
argument is per-slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..netlist.circuit import Circuit
from ..sat.incremental import IncrementalCecSession
from ..sim.equivalence import exhaustive_equivalent
from .embed import FingerprintedCircuit
from .locations import LocationCatalog

#: Widest design audited by exhaustive simulation; wider ones go to SAT.
#: Below the simulator's own limit (24), so a design with 15-24 inputs is
#: proven by the CEC session, not by up to 2**24 vectors per variant.
AUDIT_EXHAUSTIVE_INPUTS = 14


@dataclass(frozen=True)
class VariantVerdict:
    """Verification outcome of one (slot, variant) pair."""

    target: str
    variant_index: int
    equivalent: bool
    method: str  # "exhaustive" | "sat"


@dataclass
class AuditReport:
    """Outcome of a whole-catalog audit."""

    circuit_name: str
    verdicts: List[VariantVerdict] = field(default_factory=list)

    @property
    def n_checked(self) -> int:
        return len(self.verdicts)

    @property
    def failures(self) -> Tuple[VariantVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.equivalent)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.failures)} FAILURES"
        return (
            f"audit of {self.circuit_name}: {self.n_checked} variants "
            f"checked, {status}"
        )


def audit_catalog(
    base: Circuit,
    catalog: LocationCatalog,
    max_variants: Optional[int] = None,
) -> AuditReport:
    """Verify every variant of every slot against the golden design.

    ``max_variants`` bounds the total number of checks (useful to smoke a
    huge catalog); ``None`` audits everything.  SAT checks share one CEC
    session over ``base``, built on first use; a session's verdict
    depends only on the base and the copy.
    """
    report = AuditReport(base.name)
    use_exhaustive = len(base.inputs) <= AUDIT_EXHAUSTIVE_INPUTS
    session: Optional[IncrementalCecSession] = None
    fp = FingerprintedCircuit(base, catalog, name=f"{base.name}_audit")
    for slot in catalog.slots():
        for index in range(1, len(slot.variants) + 1):
            if max_variants is not None and report.n_checked >= max_variants:
                return report
            fp.apply(slot.target, index)
            if use_exhaustive:
                verdict = exhaustive_equivalent(base, fp.circuit).equivalent
                method = "exhaustive"
            else:
                if session is None:
                    session = IncrementalCecSession(base)
                verdict = session.verify(fp.circuit).equivalent
                method = "sat"
            report.verdicts.append(
                VariantVerdict(slot.target, index, verdict, method)
            )
            fp.remove(slot.target)
    return report
