"""Local window extraction over the compiled-circuit CSR adjacency.

A *window* is the slice of a circuit the resubstitution attack
(:mod:`repro.attack.resub`) reasons about for one candidate gate: the
gate's transitive fanout cone, cut at :data:`MAX_LEVELS` levels above the
gate and at :data:`MAX_GATES` members.  Fanins of members that are
neither members nor the seed net are the window's *side inputs*; the
resubstitution miter treats them as free variables.
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
from typing import List

import numpy as np

from ..ir.compiled import CompiledCircuit


#: Cone depth kept beyond the seed net's level; gates further than this
#: become boundary cut points.
MAX_LEVELS = 8
#: Hard cap on window membership (the cone is truncated beyond it).
MAX_GATES = 48


@dataclass(frozen=True)
class Window:
    """One extracted window (all arrays hold interned net IDs).

    ``gate_ids`` is the topologically sorted member set; ``output_ids``
    are the members whose value escapes the window (boundary cuts and
    primary outputs).  ``seed_escapes`` marks a seed with a consumer
    outside the window, ``seed_is_po`` a seed that is a primary output.
    """

    seed_id: int
    gate_ids: np.ndarray
    output_ids: np.ndarray
    seed_escapes: bool
    seed_is_po: bool


def extract_window(compiled: CompiledCircuit, seed_id: int) -> Window:
    """Extract the cut TFO window of net ``seed_id``.

    The walk pops candidate gate IDs from a min-heap seeded with the
    net's direct consumers; every pushed ID exceeds the ID being popped
    (consumers are always numbered above their inputs), so pops are
    strictly ascending and the member list is already in topological
    evaluation order.  Gates beyond :data:`MAX_LEVELS` above the seed are
    cut (left out but remembered through their producers' fanout rows);
    the walk stops once :data:`MAX_GATES` members are collected.
    """
    levels = compiled.levels
    level_cap = int(levels[seed_id]) + MAX_LEVELS

    members: List[int] = []
    member_set = set()
    frontier = [int(g) for g in compiled.fanout_row(seed_id)]
    heapq.heapify(frontier)
    queued = set(frontier)
    while frontier and len(members) < MAX_GATES:
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
    outputs = [
        gid for gid in members
        if gid in po_set
        or any(int(f) not in member_set for f in compiled.fanout_row(gid))
    ]
    seed_escapes = any(
        int(f) not in member_set for f in compiled.fanout_row(seed_id)
    )
    return Window(
        seed_id=seed_id,
        gate_ids=np.asarray(members, dtype=np.int32),
        output_ids=np.asarray(outputs, dtype=np.int32),
        seed_escapes=seed_escapes,
        seed_is_po=seed_id in po_set,
    )
