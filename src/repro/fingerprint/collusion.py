"""Collusion attack simulation and colluder tracing (paper §III.E).

An attacker holding several fingerprinted copies can diff their layouts
and see exactly the slots where the copies differ; slots where all copies
agree are invisible to the attack (this is the standard *marking
assumption*).  The attacker forges a pirate copy by choosing, per visible
slot, one of the observed configurations (or stripping the modification
when some copy shows the unmodified form).

Tracing scores every registered buyer against the pirate's extracted
assignment; as the paper notes, unless the colluders scrub *all* their
fingerprint information, the colluding buyers remain identifiable — their
scores dominate the innocent population's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .signature import BuyerRegistry

#: Smallest above-median score drop :func:`trace` accepts as the cut
#: between colluders and innocents.
MIN_GAP = 0.08


@dataclass(frozen=True)
class CollusionOutcome:
    """Forged assignment plus bookkeeping about what the attack saw."""

    pirate_assignment: Dict[str, int]
    visible_slots: Tuple[str, ...]
    strategy: str


def collude(
    assignments: Sequence[Dict[str, int]],
    strategy: str = "majority",
    seed: int = 0,
) -> CollusionOutcome:
    """Forge a pirate assignment from the colluders' assignments.

    Strategies:
      * ``"majority"`` — per visible slot take the most common config.
      * ``"random"``   — per visible slot pick a random observed config.
      * ``"strip"``    — per visible slot prefer the unmodified form when
        any colluder exposes it, else majority (strongest removal attack
        under the marking assumption).
    """
    if not assignments:
        raise ValueError("need at least one colluder")
    if strategy not in ("majority", "random", "strip"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    slots = sorted(assignments[0])
    pirate: Dict[str, int] = {}
    visible: List[str] = []
    for slot in slots:
        observed = [a.get(slot, 0) for a in assignments]
        distinct = sorted(set(observed))
        if len(distinct) == 1:
            pirate[slot] = distinct[0]
            continue
        visible.append(slot)
        if strategy == "random":
            pirate[slot] = rng.choice(distinct)
        elif strategy == "strip" and 0 in distinct:
            pirate[slot] = 0
        else:
            counts = {value: observed.count(value) for value in distinct}
            best = max(counts.values())
            pirate[slot] = min(v for v, c in counts.items() if c == best)
    return CollusionOutcome(
        pirate_assignment=pirate,
        visible_slots=tuple(visible),
        strategy=strategy,
    )


@dataclass(frozen=True)
class TraceReport:
    """Ranked tracing result."""

    scores: Tuple[Tuple[str, float], ...]
    accused: Tuple[str, ...]
    threshold: float


def trace(
    registry: BuyerRegistry,
    pirate_assignment: Dict[str, int],
) -> TraceReport:
    """Score all buyers against the pirate and accuse high scorers.

    The accusation cut is placed at the largest drop between consecutive
    sorted scores above the population median — colluders cluster high,
    innocents cluster around the chance level, and the gap between the
    clusters is the robust separator.  If no above-median drop reaches
    :data:`MIN_GAP` (a flat distribution: the pirate resembles nobody in
    particular), nobody is accused, protecting innocents.
    """
    scores = registry.score(pirate_assignment)
    if not scores:
        return TraceReport(scores=(), accused=(), threshold=0.0)
    values = sorted((s for _, s in scores), reverse=True)
    median = values[len(values) // 2]

    # Largest-gap detection over the above-median region.
    best_gap = 0.0
    cut = float("inf")
    for index in range(len(values) - 1):
        if values[index] <= median:
            break
        gap = values[index] - values[index + 1]
        if gap > best_gap:
            best_gap = gap
            cut = (values[index] + values[index + 1]) / 2.0
    if best_gap < MIN_GAP:
        return TraceReport(scores=tuple(scores), accused=(), threshold=float("inf"))
    accused = tuple(buyer for buyer, score in scores if score > cut)
    return TraceReport(scores=tuple(scores), accused=accused, threshold=cut)


def colluders_traced(
    report: TraceReport, colluders: Sequence[str]
) -> Tuple[bool, Tuple[str, ...]]:
    """Check tracing success: (all accused are guilty, missed colluders)."""
    guilty = set(colluders)
    false_accusations = [b for b in report.accused if b not in guilty]
    missed = tuple(sorted(guilty - set(report.accused)))
    return (not false_accusations, missed)
