"""Fault-injection campaign harness.

Runs the full fingerprinting pipeline (or a parser) over systematically
injected faults and classifies every outcome:

``VALID``
    The flow completed and returned a result — for functional faults the
    verification ladder is expected to flag the mismatch, which the record
    notes separately.
``TYPED_ERROR``
    The flow failed with a :class:`repro.errors.ReproError` carrying a
    non-empty message — the documented, acceptable failure mode.
``UNTYPED_ERROR``
    Anything else escaped (``KeyError``, ``RecursionError``, ...).  This is
    a bug by definition; :attr:`CampaignReport.clean` is False.
``SKIPPED``
    The mutator itself was inapplicable to the seed circuit (e.g. no
    swappable gate kinds) — not a flow failure.

The harness is how the ROADMAP's "handles as many scenarios as you can
imagine" goal becomes *tested* behaviour rather than aspiration, following
the DAVOS methodology of proving error handling by injection.
"""

from __future__ import annotations

import enum
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..budget import Budget
from ..errors import FaultInjectionError, ReproError
from ..flows.ladder import LadderConfig
from ..flows.options import FlowOptions
from ..flows.pipeline import run_flow
from ..netlist.circuit import Circuit
from ..seeds import derive_rng
from .corruptors import ALL_CORRUPTORS, Corruptor
from .mutators import ALL_MUTATORS, Mutator


class Outcome(enum.Enum):
    VALID = "valid"
    TYPED_ERROR = "typed-error"
    UNTYPED_ERROR = "untyped-error"
    SKIPPED = "skipped"


#: Fast verification settings so campaigns stay cheap even on hard mutants.
CAMPAIGN_LADDER = LadderConfig(
    max_exhaustive_inputs=12,
    sat_budget=Budget(deadline_s=5.0, max_conflicts=50_000),
    n_random_vectors=1024,
)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault and what the system did about it."""

    design: str
    injector: str
    description: str
    outcome: Outcome
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    diagnostic: Optional[str] = None
    mismatch_detected: bool = False
    structural: Optional[bool] = None

    @property
    def acceptable(self) -> bool:
        """Typed error with a useful message, a valid result, or a skip."""
        if self.outcome is Outcome.UNTYPED_ERROR:
            return False
        if self.outcome is Outcome.TYPED_ERROR:
            return bool(self.error_message and self.error_message.strip())
        return True

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the campaign DB's verdict payload)."""
        payload = asdict(self)
        payload["outcome"] = self.outcome.value
        payload["acceptable"] = self.acceptable
        return payload


@dataclass
class CampaignReport:
    """Aggregated result of one campaign run."""

    records: List[FaultRecord] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every record is an acceptable outcome."""
        return all(record.acceptable for record in self.records)

    def violations(self) -> List[FaultRecord]:
        """Records that break the typed-error-or-valid-result contract."""
        return [r for r in self.records if not r.acceptable]

    def counts(self) -> Dict[str, int]:
        """Histogram ``outcome value -> record count``."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            key = record.outcome.value
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def by_injector(self) -> Dict[str, Dict[str, int]]:
        """Nested histogram ``injector -> outcome -> count``."""
        table: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            inner = table.setdefault(record.injector, {})
            inner[record.outcome.value] = inner.get(record.outcome.value, 0) + 1
        return table

    def summary(self) -> str:
        """Multi-line human-readable campaign summary."""
        counts = self.counts()
        lines = [
            f"fault-injection campaign: {len(self.records)} injections, "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        ]
        for injector, inner in sorted(self.by_injector().items()):
            detail = ", ".join(f"{k}={v}" for k, v in sorted(inner.items()))
            lines.append(f"  {injector}: {detail}")
        for record in self.violations():
            lines.append(
                f"  VIOLATION [{record.injector} on {record.design}]: "
                f"{record.error_type}: {record.error_message}"
            )
        lines.append("verdict: " + ("CLEAN" if self.clean else "VIOLATIONS FOUND"))
        return "\n".join(lines)


def _classify(run: Callable[[], object]) -> FaultRecord:
    """Execute ``run`` and fold the outcome into a partial record.

    Returns a record with design/injector/description left blank; the
    campaign drivers fill those in with :func:`dataclasses.replace`.
    """
    try:
        result = run()
    except ReproError as exc:
        diagnostic = exc.diagnostic() if hasattr(exc, "diagnostic") else str(exc)
        return FaultRecord(
            design="",
            injector="",
            description="",
            outcome=Outcome.TYPED_ERROR,
            error_type=type(exc).__name__,
            error_message=str(exc),
            diagnostic=diagnostic,
        )
    except Exception as exc:  # noqa: BLE001 — the campaign exists to catch these
        return FaultRecord(
            design="",
            injector="",
            description="",
            outcome=Outcome.UNTYPED_ERROR,
            error_type=type(exc).__name__,
            error_message=str(exc),
            diagnostic=traceback.format_exc(limit=8),
        )
    mismatch = False
    verification = getattr(result, "verification", None)
    if verification is not None:
        mismatch = not verification.equivalent
    return FaultRecord(
        design="",
        injector="",
        description="",
        outcome=Outcome.VALID,
        mismatch_detected=mismatch,
    )


def run_one_injection(
    circuit: Circuit,
    mutator: Mutator,
    trial: int,
    seed: int = 0,
    ladder: Optional[LadderConfig] = None,
) -> FaultRecord:
    """One (circuit, mutator, trial) point: inject, run the flow, classify.

    The per-trial randomness comes from :func:`repro.seeds.derive_rng`, so
    the record for a coordinate is identical whether it is produced by the
    in-memory loop below or by a persistent
    :mod:`repro.campaign` job — that equivalence is what lets the
    campaign engine resume fault-injection sweeps deterministically.
    """
    ladder = ladder if ladder is not None else CAMPAIGN_LADDER
    rng = derive_rng(seed, circuit.name, mutator.name, trial)
    mutant = circuit.clone(f"{circuit.name}__{mutator.name}_{trial}")
    try:
        fault = mutator.apply(mutant, rng)
    except FaultInjectionError as exc:
        return FaultRecord(
            design=circuit.name,
            injector=mutator.name,
            description=str(exc),
            outcome=Outcome.SKIPPED,
            structural=mutator.structural,
        )
    partial = _classify(lambda m=mutant: run_flow(m, FlowOptions(ladder=ladder)))
    return replace(
        partial,
        design=circuit.name,
        injector=mutator.name,
        description=fault.description,
        structural=mutator.structural,
    )


def run_one_corruption(
    name: str,
    text: str,
    corruptor: Corruptor,
    trial: int,
    parser: Callable[[str], object],
    seed: int = 0,
) -> FaultRecord:
    """One (document, corruptor, trial) point: corrupt, parse, classify."""
    rng = derive_rng(seed, name, corruptor.name, trial)
    try:
        corrupted = corruptor.apply(text, rng)
    except FaultInjectionError as exc:
        return FaultRecord(
            design=name,
            injector=corruptor.name,
            description=str(exc),
            outcome=Outcome.SKIPPED,
        )
    partial = _classify(lambda c=corrupted: parser(c.text))
    return replace(
        partial,
        design=name,
        injector=corruptor.name,
        description=corrupted.description,
    )


def run_netlist_campaign(
    circuits: Sequence[Circuit],
    mutators: Sequence[Mutator] = ALL_MUTATORS,
    trials: int = 1,
    seed: int = 0,
    ladder: Optional[LadderConfig] = None,
) -> CampaignReport:
    """Inject every mutator into every circuit and run the full pipeline.

    Each (circuit, mutator, trial) triple clones the seed circuit, injects
    one fault, and pushes the mutant through the fingerprinting flow under
    the cheap :data:`CAMPAIGN_LADDER` verification settings.  The report
    asserts nothing by itself — check :attr:`CampaignReport.clean`.

    This is the in-memory front-end; for persistent, resumable sweeps use
    ``repro-fp campaign run --kind inject`` (:mod:`repro.campaign`),
    which executes the same per-trial function against a result DB.
    """
    ladder = ladder if ladder is not None else CAMPAIGN_LADDER
    report = CampaignReport()
    for circuit in circuits:
        for mutator in mutators:
            for trial in range(trials):
                report.records.append(
                    run_one_injection(circuit, mutator, trial, seed, ladder)
                )
    return report


def run_text_campaign(
    documents: Mapping[str, str],
    parser: Callable[[str], object],
    corruptors: Sequence[Corruptor] = ALL_CORRUPTORS,
    trials: int = 3,
    seed: int = 0,
) -> CampaignReport:
    """Corrupt serialized netlists and assert the parser fails typed.

    ``documents`` maps a display name to the document text; ``parser`` is
    e.g. :func:`repro.netlist.blif.parse_blif` or
    :func:`repro.netlist.verilog.parse_verilog`.
    """
    report = CampaignReport()
    for name, text in documents.items():
        for corruptor in corruptors:
            for trial in range(trials):
                report.records.append(
                    run_one_corruption(name, text, corruptor, trial, parser, seed)
                )
    return report


__all__ = [
    "CAMPAIGN_LADDER",
    "CampaignReport",
    "FaultRecord",
    "Outcome",
    "run_netlist_campaign",
    "run_one_corruption",
    "run_one_injection",
    "run_text_campaign",
]
