"""Local window extraction over the compiled-circuit CSR adjacency.

A *window* is the slice of a circuit the resubstitution attack
(:mod:`repro.attack.resub`) reasons about for one candidate gate: the
gate's transitive fanout cone, cut at a maximum level distance and a
maximum gate count, plus the *side inputs* (fanins of window members
that are neither members nor the seed net).
Because compiled-IR net IDs are topologically numbered, a min-heap walk
over the fanout CSR pops members in strictly ascending ID order — the
member array *is* an evaluation order, and truncating it at any point
still leaves a closed topological prefix of the cone.

Boundary bookkeeping matters for soundness: a member whose fanout row
leaves the window (because the level or size cut excluded a consumer)
is a *boundary output* — a value difference reaching it may still
propagate to a primary output the window cannot see, so a caller may
never refute or confirm from boundary behaviour alone.  Primary outputs
inside the window are *exact* outputs: a difference there is a real
observability witness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..ir.compiled import CompiledCircuit


@dataclass(frozen=True)
class WindowConfig:
    """Tuning knobs for window extraction.

    Attributes:
        max_levels: Cone depth kept beyond the seed net's level; gates
            further than this become boundary cut points.
        max_gates: Hard cap on window membership (cone truncated beyond).
    """

    max_levels: int = 8
    max_gates: int = 48

    def __post_init__(self) -> None:
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_gates < 1:
            raise ValueError("max_gates must be >= 1")


@dataclass(frozen=True)
class Window:
    """One extracted window (all arrays hold interned net IDs).

    ``gate_ids`` is the topologically sorted member set; ``output_ids``
    are the members whose value escapes the window (boundary cuts and
    primary outputs), ``po_ids`` the subset that are real primary
    outputs.  ``seed_escapes`` marks a seed with a consumer outside the
    window; ``cut`` is True when any escape route is not a primary
    output, i.e. the window under-approximates the cone.
    """

    seed_id: int
    gate_ids: np.ndarray
    side_input_ids: np.ndarray
    output_ids: np.ndarray
    po_ids: np.ndarray
    seed_escapes: bool
    seed_is_po: bool
    cut: bool

    @property
    def n_gates(self) -> int:
        return int(len(self.gate_ids))


def extract_window(
    compiled: CompiledCircuit,
    seed_id: int,
    config: Optional[WindowConfig] = None,
) -> Window:
    """Extract the cut TFO window of net ``seed_id``.

    The walk pops candidate gate IDs from a min-heap seeded with the
    net's direct consumers; every pushed ID exceeds the ID being popped
    (consumers are always numbered above their inputs), so pops are
    strictly ascending and the member list is already in topological
    evaluation order.  Gates beyond ``max_levels`` above the seed are
    cut (left out but remembered through their producers' fanout rows);
    the walk stops once ``max_gates`` members are collected.
    """
    config = config or WindowConfig()
    levels = compiled.levels
    level_cap = int(levels[seed_id]) + config.max_levels

    members: List[int] = []
    member_set = set()
    frontier = [int(g) for g in compiled.fanout_row(seed_id)]
    heapq.heapify(frontier)
    queued = set(frontier)
    while frontier and len(members) < config.max_gates:
        gid = heapq.heappop(frontier)
        if levels[gid] > level_cap:
            continue  # level cut: producer rows still reveal the escape
        members.append(gid)
        member_set.add(gid)
        for nxt in compiled.fanout_row(gid):
            nxt = int(nxt)
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(frontier, nxt)

    po_set = set(int(i) for i in compiled.output_ids)
    outputs: List[int] = []
    pos: List[int] = []
    cut = False
    for gid in members:
        is_po = gid in po_set
        escapes = any(int(f) not in member_set for f in compiled.fanout_row(gid))
        if is_po:
            pos.append(gid)
        if is_po or escapes:
            outputs.append(gid)
        if escapes:
            cut = True
    seed_escapes = any(
        int(f) not in member_set for f in compiled.fanout_row(seed_id)
    )
    if seed_escapes:
        cut = True

    side: List[int] = []
    seen_side = set()
    for gid in members:
        for fid in compiled.fanin_row(gid):
            fid = int(fid)
            if fid != seed_id and fid not in member_set and fid not in seen_side:
                seen_side.add(fid)
                side.append(fid)

    return Window(
        seed_id=seed_id,
        gate_ids=np.asarray(members, dtype=np.int32),
        side_input_ids=np.asarray(sorted(side), dtype=np.int32),
        output_ids=np.asarray(outputs, dtype=np.int32),
        po_ids=np.asarray(pos, dtype=np.int32),
        seed_escapes=seed_escapes,
        seed_is_po=seed_id in po_set,
        cut=cut,
    )
