"""Attack orchestration and robustness scoring.

:func:`run_attack_suite` plays both sides for one design: it builds the
defender's world (strashed golden design, location catalog, buyer registry
with a victim, collusion partners and an innocent population), hands each
attack the material its threat model grants, and then scores the attacked
copy the way the IP owner would:

* **validity** — the attacked copy must still be the design: the existing
  verification ladder (exhaustive sim → budgeted SAT CEC → random sim)
  runs against the victim copy.  The harness restores the
  adversary's renaming/pin permutation first using the attack's own ground
  truth; an attack that breaks function is worthless, and the report says
  so rather than hiding it.
* **bits surviving** — the fingerprint is re-extracted with the
  defender-realistic reader (name-based for name-preserving attacks,
  structural matching after renaming; pin order restored first for remap
  attacks, since ports are physically pinned and the owner reads the pad
  correspondence off the package).  A slot survives when it still decodes
  to the victim's configuration; surviving bits weight slots by
  ``log2(n_configs)``.
* **tracing** — the extracted assignment is scored against the full buyer
  registry (:func:`repro.fingerprint.collusion.trace`); for collusion
  attacks success additionally means no innocent is accused.
* **cost** — area/delay of the attacked copy relative to the victim copy
  (negative = the attack also shrank the circuit, as resubstitution
  typically does when it strips fingerprint literals).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .. import telemetry
from ..analysis.metrics import measure
from ..fingerprint.collusion import colluders_traced, trace
from ..fingerprint.embed import embed
from ..fingerprint.extract import extract
from ..fingerprint.locations import FinderOptions, find_locations
from ..fingerprint.signature import BuyerRegistry
from ..fingerprint.structural import extract_structural
from ..flows.ladder import LadderConfig, run_ladder
from ..netlist.circuit import Circuit
from ..netlist.transform import merge_duplicate_gates, rename_nets
from .base import Attack, AttackContext, AttackedCopy
from .collusion import CollusionAttack
from .config import AttackConfig, AttackError
from .rewrite import (
    PinRemapAttack,
    RenameAttack,
    ResubAttack,
    RewriteAttack,
    SweepAttack,
    reorder_ports,
)

#: Attack roster in default execution order (cheap and structural first).
ATTACK_CLASSES: Tuple[Type[Attack], ...] = (
    SweepAttack,
    RewriteAttack,
    RenameAttack,
    PinRemapAttack,
    ResubAttack,
    CollusionAttack,
)

ATTACK_NAMES: Tuple[str, ...] = tuple(cls.name for cls in ATTACK_CLASSES)

_BY_NAME: Dict[str, Type[Attack]] = {cls.name: cls for cls in ATTACK_CLASSES}

#: Innocent buyers registered alongside the colluders for tracing stats.
_INNOCENT_POPULATION = 4


@dataclass(frozen=True)
class AttackOutcome:
    """Scored result of one attack against one design."""

    attack: str
    design: str
    equivalent: bool
    proven: bool
    tier: str
    confidence: float
    slots_total: int
    slots_surviving: int
    slots_modified: int
    modified_surviving: int
    tampered: int
    bits_total: float
    bits_surviving: float
    value_recovered: bool
    accused: Tuple[str, ...]
    traced_cleanly: bool
    area_cost: float
    delay_cost: float
    gates_delta: int
    edits: int
    seconds: float
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "attack": self.attack,
            "design": self.design,
            "equivalent": self.equivalent,
            "proven": self.proven,
            "tier": self.tier,
            "confidence": round(self.confidence, 6),
            "slots_total": self.slots_total,
            "slots_surviving": self.slots_surviving,
            "slots_modified": self.slots_modified,
            "modified_surviving": self.modified_surviving,
            "tampered": self.tampered,
            "bits_total": round(self.bits_total, 3),
            "bits_surviving": round(self.bits_surviving, 3),
            "value_recovered": self.value_recovered,
            "accused": list(self.accused),
            "traced_cleanly": self.traced_cleanly,
            "area_cost": round(self.area_cost, 6),
            "delay_cost": round(self.delay_cost, 6),
            "gates_delta": self.gates_delta,
            "edits": self.edits,
            "seconds": round(self.seconds, 4),
            "details": self.details,
        }


@dataclass(frozen=True)
class AttackSuiteReport:
    """All attack outcomes for one design."""

    design: str
    seed: int
    slots_total: int
    bits_total: float
    outcomes: Tuple[AttackOutcome, ...]
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def all_equivalent(self) -> bool:
        return all(o.equivalent for o in self.outcomes)

    def outcome(self, attack: str) -> AttackOutcome:
        for candidate in self.outcomes:
            if candidate.attack == attack:
                return candidate
        raise KeyError(attack)

    def survival(self) -> Dict[str, float]:
        """Per-attack surviving-bit fractions (the robustness row)."""
        if not self.bits_total:
            return {o.attack: 0.0 for o in self.outcomes}
        return {
            o.attack: o.bits_surviving / self.bits_total for o in self.outcomes
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "seed": self.seed,
            "slots_total": self.slots_total,
            "bits_total": round(self.bits_total, 3),
            "all_equivalent": self.all_equivalent,
            "skipped": dict(self.skipped),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


def _slot_bits(slot) -> float:
    return math.log2(slot.n_configs) if slot.n_configs > 1 else 0.0


def _restore_for_equivalence(
    attacked: AttackedCopy, victim_copy: Circuit
) -> Circuit:
    """Undo renaming/permutation so the ladder sees matching ports."""
    restored = attacked.circuit
    if attacked.inverse_rename:
        restored = rename_nets(
            restored, attacked.inverse_rename, name=f"{restored.name}_restored"
        )
    if attacked.remapped:
        restored = reorder_ports(
            restored, victim_copy.inputs, victim_copy.outputs
        )
    return restored


def _suspect_for_extraction(
    attacked: AttackedCopy, victim_copy: Circuit
) -> Circuit:
    """The circuit extraction runs on, with pin order restored.

    Net names are *never* restored here — a renamed suspect goes through
    structural matching.  Pin order restoration models the physically
    pinned package: the owner knows which pad is which, so the suspect's
    port lists are reordered into pin order (derived from the attack's
    ground-truth map, which stands in for the pad correspondence).
    """
    if not attacked.remapped:
        return attacked.circuit
    suspect = attacked.circuit
    assert attacked.inverse_rename is not None
    by_victim = {attacked.inverse_rename[n]: n for n in suspect.inputs}
    by_victim_out = {attacked.inverse_rename[n]: n for n in suspect.outputs}
    return reorder_ports(
        suspect,
        [by_victim[name] for name in victim_copy.inputs],
        [by_victim_out[name] for name in victim_copy.outputs],
    )


def build_context(
    design: Circuit,
    config: Optional[AttackConfig] = None,
    finder: Optional[FinderOptions] = None,
) -> AttackContext:
    """Construct the defender world one attack suite runs against."""
    config = config or AttackConfig()
    base = design.clone(design.name)
    merge_duplicate_gates(base)  # structural extraction needs a twin-free golden
    base.validate()
    catalog = find_locations(base, finder or FinderOptions())
    if not catalog.slots():
        raise AttackError(
            f"design {design.name!r} has no fingerprint locations to attack"
        )
    registry = BuyerRegistry(catalog, seed=config.seed)
    space = registry.codec.combinations
    if space < 2:
        raise AttackError(
            f"design {design.name!r} has a degenerate fingerprint space"
        )
    n_colluders = min(config.colluders, space)
    n_innocents = min(_INNOCENT_POPULATION, space - n_colluders)
    victim = registry.register("victim")
    colluders = [victim] + [
        registry.register(f"colluder{i}") for i in range(1, n_colluders)
    ]
    for i in range(n_innocents):
        registry.register(f"innocent{i}")
    victim_copy = embed(
        base, catalog, victim.assignment, name=f"{base.name}_victim"
    ).circuit
    return AttackContext(
        base=base,
        catalog=catalog,
        registry=registry,
        victim=victim,
        victim_copy=victim_copy,
        colluder_records=colluders,
        config=config,
    )


def run_attack(
    attack: Attack,
    ctx: AttackContext,
    ladder: Optional[LadderConfig] = None,
) -> AttackOutcome:
    """Run one attack and score it against the victim copy."""
    with telemetry.span(
        "attack.run", design=ctx.base.name, attack=attack.name
    ):
        start = time.perf_counter()
        attacked = attack.run(ctx)
        restored = _restore_for_equivalence(attacked, ctx.victim_copy)
        report = run_ladder(ctx.victim_copy, restored, config=ladder)
        if attacked.renamed:
            extraction = extract_structural(
                _suspect_for_extraction(attacked, ctx.victim_copy),
                ctx.base,
                ctx.catalog,
            )
        else:
            extraction = extract(attacked.circuit, ctx.base, ctx.catalog)
        seconds = time.perf_counter() - start

    slots = ctx.catalog.slots()
    expected = ctx.victim.assignment
    bits_total = sum(_slot_bits(s) for s in slots)
    surviving = [
        s
        for s in slots
        if extraction.assignment.get(s.target, 0) == expected.get(s.target, 0)
    ]
    modified = [s for s in slots if expected.get(s.target, 0) != 0]
    modified_surviving = sum(1 for s in modified if s in surviving)
    bits_surviving = sum(_slot_bits(s) for s in surviving)
    try:
        value_recovered = (
            ctx.registry.codec.decode(extraction.assignment) == ctx.victim.value
        )
    except ValueError:
        value_recovered = False

    trace_report = trace(ctx.registry, extraction.assignment)
    guilty = (
        [r.buyer for r in ctx.colluder_records]
        if attack.name == CollusionAttack.name
        else [ctx.victim.buyer]
    )
    no_false_accusations, _missed = colluders_traced(trace_report, guilty)
    traced_cleanly = no_false_accusations and bool(trace_report.accused)

    victim_metrics = measure(ctx.victim_copy)
    attacked_metrics = measure(attacked.circuit)
    area_cost = (
        (attacked_metrics.area - victim_metrics.area) / victim_metrics.area
        if victim_metrics.area
        else 0.0
    )
    delay_cost = (
        (attacked_metrics.delay - victim_metrics.delay) / victim_metrics.delay
        if victim_metrics.delay
        else 0.0
    )

    telemetry.count("attack.runs")
    telemetry.count(f"attack.{attack.name}.bits_surviving", int(bits_surviving))
    return AttackOutcome(
        attack=attack.name,
        design=ctx.base.name,
        equivalent=report.equivalent,
        proven=report.proven,
        tier=report.tier.value,
        confidence=report.confidence,
        slots_total=len(slots),
        slots_surviving=len(surviving),
        slots_modified=len(modified),
        modified_surviving=modified_surviving,
        tampered=len(extraction.tampered),
        bits_total=bits_total,
        bits_surviving=bits_surviving,
        value_recovered=value_recovered,
        accused=trace_report.accused,
        traced_cleanly=traced_cleanly,
        area_cost=area_cost,
        delay_cost=delay_cost,
        gates_delta=attacked_metrics.gates - victim_metrics.gates,
        edits=attacked.edits,
        seconds=seconds,
        details=dict(attacked.details),
    )


def run_attack_suite(
    design: Circuit,
    attacks: Optional[Sequence[str]] = None,
    config: Optional[AttackConfig] = None,
    ladder: Optional[LadderConfig] = None,
    finder: Optional[FinderOptions] = None,
) -> AttackSuiteReport:
    """Run the attack roster against one design and assemble the report."""
    config = config or AttackConfig()
    names = list(attacks) if attacks is not None else list(ATTACK_NAMES)
    unknown = sorted(set(names) - set(ATTACK_NAMES))
    if unknown:
        raise AttackError(
            f"unknown attack(s): {', '.join(unknown)} "
            f"(valid: {', '.join(ATTACK_NAMES)})"
        )
    ctx = build_context(design, config, finder)
    outcomes: List[AttackOutcome] = []
    skipped: Dict[str, str] = {}
    for name in names:
        if (
            name == CollusionAttack.name
            and len(ctx.colluder_records) < 2
        ):
            skipped[name] = "fingerprint space too small for collusion"
            continue
        outcomes.append(run_attack(_BY_NAME[name](), ctx, ladder))
    slots = ctx.catalog.slots()
    return AttackSuiteReport(
        design=ctx.base.name,
        seed=config.seed,
        slots_total=len(slots),
        bits_total=sum(_slot_bits(s) for s in slots),
        outcomes=tuple(outcomes),
        skipped=skipped,
    )


__all__ = [
    "ATTACK_CLASSES",
    "ATTACK_NAMES",
    "AttackOutcome",
    "AttackSuiteReport",
    "build_context",
    "run_attack",
    "run_attack_suite",
]
