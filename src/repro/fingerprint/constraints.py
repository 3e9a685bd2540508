"""Overhead-constrained fingerprinting heuristics (paper §III.D, §IV.B).

Two strategies from the paper:

* **Reactive** — start from a fully fingerprinted circuit and repeatedly
  remove the modification whose removal most reduces the critical delay,
  falling back to random removals when no single removal helps (the paper
  does exactly this), until the delay constraint is met or no
  modifications remain.  Candidate removals are pruned to modifications
  touching the current critical path: removing anything else cannot
  shorten the critical path, so the pruning is lossless.

* **Proactive** — rank candidate modifications by how much slack their
  trigger and target nets have, then apply them one by one, keeping only
  those that leave the circuit within the delay budget.  This is the
  scalable "analyze before applying" method the paper describes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..netlist.circuit import Circuit
from ..timing.incremental import IncrementalTimer
from ..timing.sta import analyze, critical_delay
from .embed import EMBED_VARIANT, FingerprintedCircuit, representative_slots
from .locations import LocationCatalog

#: Float margin of the pruning loops: a trial must beat the best value by
#: more than this to count, and a metric within this of its budget meets it.
TOLERANCE = 1e-9

#: Seed of the random removals made when no single removal helps.
PRUNE_SEED = 0


@dataclass
class ConstraintResult:
    """Outcome of a constrained fingerprinting run.

    ``kept``/``removed`` count location-level modifications; the
    ``fingerprint_reduction`` matches the paper's Table III metric
    (fraction of modifications sacrificed).  ``surviving_bits`` is the
    capacity of the slots still active — the fingerprint size after the
    constraint, plotted in the paper's Fig. 7.

    For the generalized :func:`reactive_constrain`, ``baseline_delay`` and
    ``final_delay`` hold the *constrained metric's* baseline and final
    values (area or power when those metrics are selected).
    """

    fingerprinted: FingerprintedCircuit
    constraint: float
    baseline_delay: float
    final_delay: float
    initial_active: int
    kept: int
    removed: int
    surviving_bits: float
    met_constraint: bool
    steps: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def fingerprint_reduction(self) -> float:
        """Fraction of modifications removed (0.49 = 49%)."""
        if self.initial_active == 0:
            return 0.0
        return self.removed / self.initial_active


def _surviving_bits(fp: FingerprintedCircuit) -> float:
    """Capacity (bits) of locations that still carry a modification.

    A location "survives" when at least one of its slots is still active;
    its full configuration space then remains usable for future copies, so
    the surviving fingerprint size is the sum of log2(configurations) over
    surviving locations — directly comparable to the unconstrained
    capacity of the whole catalog (paper Fig. 7).
    """
    applied = fp.applied
    bits = 0.0
    for location in fp.catalog:
        if any(applied.get(slot.target) for slot in location.slots):
            bits += math.log2(location.n_configurations)
    return bits


def _candidates_on_critical_path(
    fp: FingerprintedCircuit, critical_nets: set
) -> List[str]:
    """Active modifications that can influence the current critical path.

    A modification matters when its target gate, any of the target's
    current inputs, its trigger net, or any tapped literal source lies on
    the critical path — removing anything else cannot shorten it (the
    driver-side wire penalty lives on the literal sources' drivers).
    """
    candidates = []
    for target, variant_index in fp.applied.items():
        slot = fp.slot(target)
        variant = slot.variants[variant_index - 1]
        gate = fp.circuit.gate(target)
        relevant = (
            target in critical_nets
            or slot.trigger in critical_nets
            or any(n in critical_nets for n in gate.inputs)
            or any(l.net in critical_nets for l in variant.literals)
        )
        if relevant:
            candidates.append(target)
    return candidates


def reactive_delay_constrain(
    fp: FingerprintedCircuit,
    max_delay_overhead: float,
    seed: int = PRUNE_SEED,
) -> ConstraintResult:
    """Prune modifications from ``fp`` in place until the delay fits.

    ``max_delay_overhead`` is a fraction of the baseline critical delay
    (0.10 = the paper's "10% delay constraint"), measured under
    :data:`~repro.timing.delay_models.DEFAULT_DELAY_MODEL`.
    """
    rng = random.Random(seed)
    baseline = critical_delay(fp.base)
    budget = baseline * (1.0 + max_delay_overhead)
    initial_active = fp.n_active
    steps: List[Tuple[str, str]] = []

    # Every trial edits one gate and at most one inverter, so the timer
    # re-times only what each edit moved.
    timer = IncrementalTimer(fp.circuit)
    current = timer.critical_delay()
    while fp.n_active > 0 and current > budget + TOLERANCE:
        critical_nets = set(timer.critical_path())
        candidates = _candidates_on_critical_path(fp, critical_nets)
        best_target: Optional[str] = None
        best_delay = current
        for target in candidates:
            variant_index = fp.applied[target]
            fp.remove(target)
            trial = timer.critical_delay()
            if trial < best_delay - TOLERANCE:
                best_delay = trial
                best_target = target
            fp.apply(target, variant_index)
        if best_target is not None:
            fp.remove(best_target)
            steps.append(("greedy", best_target))
            current = best_delay
        else:
            # Paper §IV.B: no single removal reduces the delay — remove a
            # random modification and keep going.
            target = rng.choice(sorted(fp.applied))
            fp.remove(target)
            steps.append(("random", target))
            current = timer.critical_delay()

    return ConstraintResult(
        fingerprinted=fp,
        constraint=max_delay_overhead,
        baseline_delay=baseline,
        final_delay=current,
        initial_active=initial_active,
        kept=fp.n_active,
        removed=initial_active - fp.n_active,
        surviving_bits=_surviving_bits(fp),
        met_constraint=current <= budget + TOLERANCE,
        steps=steps,
    )


#: Metric extractors for the generalized reactive method (§III.D: "whether
#: it be area, delay, power, or something else"); delay takes the
#: critical-path-pruned search instead.
_METRICS = {
    "area": lambda circuit: sum(g.cell.area for g in circuit.gates),
    "power": lambda circuit: _power_of(circuit),
}


def _power_of(circuit: Circuit) -> float:
    from ..power.estimate import total_power

    return total_power(circuit)


def reactive_constrain(
    fp: FingerprintedCircuit,
    metric: str,
    max_overhead: float,
) -> ConstraintResult:
    """Generalized reactive pruning for any supported cost metric.

    ``metric`` is one of ``"delay"``, ``"area"`` or ``"power"``.  Delay
    uses the critical-path-pruned search of
    :func:`reactive_delay_constrain`; area and power are monotone in the
    modification set, so each greedy step simply removes the single
    modification whose removal reduces the metric most.
    """
    if metric == "delay":
        return reactive_delay_constrain(fp, max_overhead)
    try:
        evaluate = _METRICS[metric]
    except KeyError:
        raise ValueError(f"unsupported metric {metric!r}")
    rng = random.Random(PRUNE_SEED)
    baseline = evaluate(fp.base)
    budget = baseline * (1.0 + max_overhead)
    initial_active = fp.n_active
    steps: List[Tuple[str, str]] = []

    current = evaluate(fp.circuit)
    while fp.n_active > 0 and current > budget + TOLERANCE:
        best_target: Optional[str] = None
        best_value = current
        for target in sorted(fp.applied):
            variant_index = fp.applied[target]
            fp.remove(target)
            trial = evaluate(fp.circuit)
            if trial < best_value - TOLERANCE:
                best_value = trial
                best_target = target
            fp.apply(target, variant_index)
        if best_target is not None:
            fp.remove(best_target)
            steps.append(("greedy", best_target))
            current = best_value
        else:
            target = rng.choice(sorted(fp.applied))
            fp.remove(target)
            steps.append(("random", target))
            current = evaluate(fp.circuit)

    return ConstraintResult(
        fingerprinted=fp,
        constraint=max_overhead,
        baseline_delay=baseline,
        final_delay=current,
        initial_active=initial_active,
        kept=fp.n_active,
        removed=initial_active - fp.n_active,
        surviving_bits=_surviving_bits(fp),
        met_constraint=current <= budget + TOLERANCE,
        steps=steps,
    )


def proactive_delay_constrain(
    base: Circuit,
    catalog: LocationCatalog,
    max_delay_overhead: float,
) -> ConstraintResult:
    """Build a fingerprint copy that never exceeds the delay budget.

    Candidate modifications (one representative slot per location, at
    variant :data:`~repro.fingerprint.embed.EMBED_VARIANT`, as in the
    paper's main flow) are sorted by decreasing slack of their target
    gate in the baseline circuit, so the cheapest modifications are tried
    first; each application is kept only if the measured delay stays
    within budget.
    """
    baseline_report = analyze(base)
    baseline = baseline_report.critical_delay
    budget = baseline * (1.0 + max_delay_overhead)
    slots = representative_slots(base, catalog)
    candidates = sorted(
        slots,
        key=lambda s: (-baseline_report.slack(s.target), s.target),
    )
    fp = FingerprintedCircuit(base, catalog)
    steps: List[Tuple[str, str]] = []
    for slot in candidates:
        index = min(EMBED_VARIANT, len(slot.variants))
        fp.apply(slot.target, index)
        if critical_delay(fp.circuit) > budget:
            fp.remove(slot.target)
            steps.append(("rejected", slot.target))
        else:
            steps.append(("accepted", slot.target))
    final = critical_delay(fp.circuit)
    total = len(candidates)
    return ConstraintResult(
        fingerprinted=fp,
        constraint=max_delay_overhead,
        baseline_delay=baseline,
        final_delay=final,
        initial_active=total,
        kept=fp.n_active,
        removed=total - fp.n_active,
        surviving_bits=_surviving_bits(fp),
        met_constraint=final <= budget,
        steps=steps,
    )
