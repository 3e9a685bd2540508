"""Canonical content hashing shared by the artifact store and campaigns.

Derived-artifact reuse is only sound when every consumer agrees on *what
identifies* a piece of content.  Before this module, two subsystems had
grown their own conventions: the incremental CEC session structurally
hashed gates over ``(kind, sorted fanin variables)`` to share deltas
between fingerprint copies, and the campaign engine content-hashed job
coordinates into stable ``job_id``\\ s.  The content-addressed store
(:mod:`repro.store`) needs the same discipline for whole circuits, so all
three canonical forms live here:

* :func:`gate_key` — one gate's structural key over already-interned
  fanin identifiers (commutative kinds sort their fanins), the key used
  by :class:`~repro.sat.incremental.IncrementalCecSession`'s strash
  table.
* :func:`circuit_digest` — a canonical structural hash of one whole
  :class:`~repro.netlist.circuit.Circuit`.  Equal digests mean the two
  netlists are *identical descriptions* (same library, same port
  declarations, same named gates over the same fanins), which is exactly
  the condition under which a compiled IR, base CNF or location catalog
  derived from one is valid for the other.  The digest is cached through
  :meth:`Circuit.cached`, so it invalidates with every structural
  mutation and repeated keying of an unchanged circuit is a dict hit.
* :func:`content_digest` / :func:`job_id_for` — stable short ids for
  coordinate tuples (the campaign convention, now shared).

Digests are *identity* keys, not similarity measures: a renamed or
re-ordered-but-equivalent netlist hashes differently, which costs a cache
miss and never a wrong artifact.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence, Tuple

#: Gate kinds whose output is invariant under fanin permutation.  Kept in
#: sync with the gate encoders in :mod:`repro.sat.tseitin`.
COMMUTATIVE_KINDS = frozenset({"AND", "NAND", "OR", "NOR", "XOR", "XNOR"})


def gate_key(kind: str, fanins: Sequence[Any]) -> Tuple:
    """Structural key of one gate over interned fanin identifiers.

    ``fanins`` may be CNF variables, net names, or any orderable interned
    form; commutative kinds sort them so ``AND(a, b)`` and ``AND(b, a)``
    collide (the strash convention of the incremental CEC session).
    """
    if kind in COMMUTATIVE_KINDS:
        return (kind, tuple(sorted(fanins)))
    return (kind, tuple(fanins))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(*parts: str) -> str:
    """Stable 16-hex-char digest of pipe-joined string parts.

    This is the campaign ``job_id`` convention, shared so every content
    id in the system is produced by one function (and pinned
    byte-compatible by test against the historical inline form).
    """
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


def job_id_for(kind: str, design: str, params: Mapping[str, Any], seed: int) -> str:
    """Stable 16-hex-char id for one campaign job coordinate.

    Byte-compatible with the pre-store ``repro.campaign.spec.job_id_for``
    (which now delegates here), so existing campaign databases join
    cleanly against re-expansions under this code.
    """
    return content_digest(
        kind, design, json.dumps(dict(params), sort_keys=True), str(seed)
    )


def options_digest(payload: Any) -> str:
    """Short digest of an options payload (dataclass-as-dict or mapping)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def circuit_digest(circuit) -> str:
    """Canonical structural hash of a whole circuit (64-hex sha256).

    The hash covers the complete netlist description — design name,
    library name, port declarations in order, and every gate as
    ``(name, kind, fanins)`` sorted by gate name — so it is independent
    of gate *insertion* order but sensitive to any structural or naming
    difference.  Cached via :meth:`Circuit.cached` when available, which
    ties invalidation to the circuit's own mutation counter.

    Gate fanins are deliberately **not** commutativity-sorted here: the
    digest keys artifacts (compiled IR, CNF encodings) whose variable
    numbering depends on the declared fanin order, so two circuits must
    only collide when those artifacts are interchangeable.
    """

    def compute() -> str:
        library = getattr(circuit, "library", None)
        payload = {
            "name": circuit.name,
            "library": getattr(library, "name", type(library).__name__),
            "inputs": list(circuit.inputs),
            "outputs": list(circuit.outputs),
            "gates": sorted(
                (gate.name, gate.kind, list(gate.inputs)) for gate in circuit.gates
            ),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    cached = getattr(circuit, "cached", None)
    if cached is not None:
        return cached("structural_digest", compute)
    return compute()


__all__ = [
    "COMMUTATIVE_KINDS",
    "canonical_json",
    "circuit_digest",
    "content_digest",
    "gate_key",
    "job_id_for",
    "options_digest",
]
