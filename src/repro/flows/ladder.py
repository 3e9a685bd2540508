"""The verification ladder: budgeted, never-crashing functional verification.

The paper's "without changing the functionality" guarantee needs an
equivalence check after every embedding, but a complete check can be
arbitrarily expensive.  Production equivalence checkers therefore treat
"undecided within budget" as a first-class outcome; this module brings the
same discipline to the fingerprinting flow with a three-tier ladder:

1. **Exhaustive simulation** — when the input count permits, a complete
   proof at bit-parallel simulation speed.
2. **Budgeted SAT CEC** — an incremental CEC session
   (:class:`repro.sat.incremental.IncrementalCecSession`, the package's
   one equivalence engine) proves the copy under a
   :class:`repro.budget.Budget`, sweeping its modified gates onto the
   base; a hard instance returns ``UNDECIDED`` instead of hanging.
3. **Random-simulation fallback** — a probabilistic verdict with an
   *explicit* confidence estimate, used when the SAT budget is spent.

Every rung records why it did (or did not) decide, so a
:class:`VerificationReport` is auditable after the fact.  The ladder never
raises on a timeout — only on genuinely malformed inputs (port mismatches,
broken netlists), and then always with a typed :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .. import telemetry
from ..budget import Budget
from ..errors import ReproError, annotate
from ..netlist.circuit import Circuit
from ..sat.cec import CecResult, CecVerdict
from ..sat.incremental import IncrementalCecSession, check
from ..sat.solver import SolverStats
from ..sim.equivalence import exhaustive_equivalent, random_equivalent
from ..sim.vectors import MAX_EXHAUSTIVE_INPUTS


class VerificationTier(enum.Enum):
    """Which rung of the ladder produced the verdict."""

    EXHAUSTIVE_SIM = "exhaustive-sim"
    SAT_CEC = "sat-cec"
    RANDOM_SIM = "random-sim"


#: Default SAT-tier budget: generous for the paper's circuit sizes, but a
#: hard miter can no longer stall the flow indefinitely.
DEFAULT_SAT_BUDGET = Budget(deadline_s=30.0, max_conflicts=2_000_000)

#: The activation rate ``eps`` behind the random tier's headline
#: confidence (see :meth:`VerificationReport.confidence_for`).
DETECTABLE_RATE = 1e-3


@dataclass(frozen=True)
class LadderConfig:
    """Tuning knobs for :func:`run_ladder`.

    Attributes:
        max_exhaustive_inputs: Widest input count still simulated
            exhaustively (clamped to the simulator's own packing limit).
        sat_budget: Resource budget for the SAT CEC tier.
        use_sat: Disable the SAT tier entirely (straight to random sim).
        n_random_vectors: Vectors for the random fallback tier.
        seed: RNG seed for the random tier.
        sat_simplify: Inert since 8.0.0, when CEC sessions stopped
            preprocessing their base encoding: both values verify the
            same way.  Still accepted and type-checked, because stored
            configurations and service payloads carry it.
    """

    max_exhaustive_inputs: int = 16
    sat_budget: Budget = field(default_factory=lambda: DEFAULT_SAT_BUDGET)
    use_sat: bool = True
    n_random_vectors: int = 8192
    seed: int = 0
    sat_simplify: bool = True

    def __post_init__(self) -> None:
        def check(name: str, kind: type, label: str) -> None:
            value = getattr(self, name)
            # bool is an int subclass: accept it only where a bool is asked for
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise TypeError(f"{name} must be {label}, got {value!r}")

        for name in ("max_exhaustive_inputs", "n_random_vectors", "seed"):
            check(name, numbers.Integral, "an int")
        for name in ("use_sat", "sat_simplify"):
            check(name, bool, "a bool")
        check("sat_budget", Budget, "a Budget")
        if self.max_exhaustive_inputs < 0:
            raise ValueError("max_exhaustive_inputs must be >= 0")
        if self.n_random_vectors < 1:
            raise ValueError("n_random_vectors must be >= 1")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one ladder run.

    ``equivalent`` is the best-effort verdict; ``proven`` says whether it is
    definitive (exhaustive proof, SAT proof, or a concrete counterexample —
    mismatches are always definitive).  ``tier`` names the rung that
    decided, ``reason`` why it was the deciding rung, and ``tiers_tried``
    the full descent, so a degraded verification is visible, not silent.
    """

    equivalent: bool
    proven: bool
    tier: VerificationTier
    reason: str
    confidence: float
    n_vectors: int = 0
    counterexample: Optional[Dict[str, int]] = None
    output: Optional[str] = None
    sat_stats: Optional[SolverStats] = None
    budget_hit: bool = False
    tiers_tried: Tuple[str, ...] = ()

    def confidence_for(self, detectable_rate: float) -> float:
        """Confidence that a difference of activation rate ``eps`` was caught.

        For the random tier with ``N`` vectors, a functional difference
        that a uniform vector triggers with probability ``eps`` escapes all
        of them with probability ``(1 - eps) ** N``; the returned value is
        one minus that bound.  For proven verdicts this is 1.0.
        """
        if self.proven:
            return 1.0
        if not 0.0 < detectable_rate <= 1.0:
            raise ValueError("detectable_rate must be in (0, 1]")
        return 1.0 - (1.0 - detectable_rate) ** max(self.n_vectors, 0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view (the CLI envelope's ``result`` section)."""
        return {
            "equivalent": self.equivalent,
            "proven": self.proven,
            "tier": self.tier.value,
            "reason": self.reason,
            "confidence": self.confidence,
            "n_vectors": self.n_vectors,
            "counterexample": self.counterexample,
            "output": self.output,
            "budget_hit": self.budget_hit,
            "tiers_tried": list(self.tiers_tried),
        }

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "equivalent" if self.equivalent else "MISMATCH"
        strength = "proven" if self.proven else f"confidence {self.confidence:.4f}"
        return f"{verdict} [{self.tier.value}, {strength}] — {self.reason}"


def run_ladder(
    left: Circuit,
    right: Circuit,
    config: Optional[LadderConfig] = None,
    session: Optional[IncrementalCecSession] = None,
) -> VerificationReport:
    """Run the verification ladder on two port-compatible circuits.

    Never raises on a verification timeout: a spent SAT budget simply drops
    to the random tier.  Malformed inputs raise a typed
    :class:`~repro.errors.ReproError` (e.g. ``PortMismatchError``,
    ``NetlistError``) annotated with the ``verify`` stage.

    The SAT tier always runs through an
    :class:`~repro.sat.incremental.IncrementalCecSession` whose base is
    ``left``.  Pass a ``session`` to share one base encoding across
    repeated calls, so each call encodes only its copy's delta; without
    one, the tier calls :func:`repro.sat.incremental.check`, which builds
    a one-copy session, and the budget's deadline then covers building
    it (encoding and simulating the base) as well as the copy's solves.
    Budgets and UNDECIDED degradation behave identically either way.
    """
    with telemetry.span("ladder.verify", design=left.name) as ladder_span:
        report = _run_tiers(left, right, config, session)
        ladder_span.set(
            tier=report.tier.value,
            equivalent=report.equivalent,
            proven=report.proven,
            budget_hit=report.budget_hit,
        )
        telemetry.count("ladder.runs")
        telemetry.count(f"ladder.tier.{report.tier.value}")
        if report.budget_hit:
            telemetry.count("ladder.budget_hits")
        return report


def _run_tiers(
    left: Circuit,
    right: Circuit,
    config: Optional[LadderConfig],
    session: Optional[IncrementalCecSession],
) -> VerificationReport:
    config = config if config is not None else LadderConfig()
    if session is not None and session.base is not left:
        raise ValueError("session base does not match the left circuit")
    tried = []

    # ---- tier 1: exhaustive simulation -------------------------------- #
    n_inputs = len(left.inputs)
    limit = min(config.max_exhaustive_inputs, MAX_EXHAUSTIVE_INPUTS)
    if n_inputs <= limit:
        tried.append(VerificationTier.EXHAUSTIVE_SIM.value)
        try:
            with telemetry.span("ladder.exhaustive_sim", inputs=n_inputs):
                result = exhaustive_equivalent(left, right)
        except ReproError as exc:
            raise annotate(exc, stage="verify", design=left.name)
        return VerificationReport(
            equivalent=result.equivalent,
            proven=True,
            tier=VerificationTier.EXHAUSTIVE_SIM,
            reason=f"{n_inputs} inputs within exhaustive limit {limit}",
            confidence=1.0,
            n_vectors=result.n_vectors,
            counterexample=result.counterexample,
            output=result.output,
            tiers_tried=tuple(tried),
        )

    # ---- tier 2: budgeted SAT CEC ------------------------------------- #
    budget_hit = False
    sat_reason = "SAT tier disabled"
    sat_stats: Optional[SolverStats] = None
    if config.use_sat:
        tried.append(VerificationTier.SAT_CEC.value)
        tier_budget = config.sat_budget
        tier_span = telemetry.span(
            "ladder.sat_cec",
            deadline_s=tier_budget.deadline_s,
            max_conflicts=tier_budget.max_conflicts,
            shared_session=session is not None,
        )
        try:
            with tier_span:
                cec, spent = _sat_tier(left, right, config, session)
                remaining = (
                    max(0, tier_budget.max_conflicts - spent)
                    if tier_budget.max_conflicts is not None
                    else None
                )
                tier_span.set(
                    verdict=cec.verdict.value,
                    conflicts_spent=spent,
                    conflicts_remaining=remaining,
                )
        except ReproError as exc:
            raise annotate(exc, stage="verify", design=left.name)
        sat_stats = cec.stats
        if cec.verdict is not CecVerdict.UNDECIDED:
            return VerificationReport(
                equivalent=cec.equivalent,
                proven=True,
                tier=VerificationTier.SAT_CEC,
                reason=(
                    f"{n_inputs} inputs exceed exhaustive limit {limit}; "
                    f"SAT resolved within {config.sat_budget}"
                ),
                confidence=1.0,
                counterexample=cec.counterexample,
                sat_stats=cec.stats,
                tiers_tried=tuple(tried),
            )
        budget_hit = True
        sat_reason = f"SAT undecided ({cec.reason})"

    # ---- tier 3: random-simulation fallback --------------------------- #
    tried.append(VerificationTier.RANDOM_SIM.value)
    try:
        with telemetry.span("ladder.random_sim", vectors=config.n_random_vectors):
            result = random_equivalent(
                left, right, n_vectors=config.n_random_vectors, seed=config.seed
            )
    except ReproError as exc:
        raise annotate(exc, stage="verify", design=left.name)
    report = VerificationReport(
        equivalent=result.equivalent,
        proven=not result.equivalent,  # a concrete mismatch is definitive
        tier=VerificationTier.RANDOM_SIM,
        reason=f"{sat_reason}; fell back to {result.n_vectors} random vectors",
        confidence=1.0,
        n_vectors=result.n_vectors,
        counterexample=result.counterexample,
        output=result.output,
        sat_stats=sat_stats,
        budget_hit=budget_hit,
        tiers_tried=tuple(tried),
    )
    return replace(report, confidence=report.confidence_for(DETECTABLE_RATE))


def _sat_tier(
    left: Circuit,
    right: Circuit,
    config: LadderConfig,
    session: Optional[IncrementalCecSession],
) -> Tuple[CecResult, int]:
    """The SAT tier's verdict and the conflicts it spent."""
    budget = config.sat_budget
    if session is None:
        cec = check(left, right, budget)
        return cec, cec.stats.conflicts
    before = session.solver.stats.conflicts
    cec = session.verify(right, budget=budget)
    return cec, cec.stats.conflicts - before


#: Facade-facing name for the ladder's report type.
LadderResult = VerificationReport


__all__ = [
    "DEFAULT_SAT_BUDGET",
    "DETECTABLE_RATE",
    "LadderConfig",
    "LadderResult",
    "VerificationReport",
    "VerificationTier",
    "run_ladder",
]
