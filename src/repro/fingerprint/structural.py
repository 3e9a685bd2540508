"""Rename-robust fingerprint extraction via structural matching.

Name-based extraction (:mod:`repro.fingerprint.extract`) assumes the
suspect netlist kept the golden design's net names — true for verbatim
layout copies, but a pirate can rename every wire for free.  Renaming
does not change *structure*, and the ports are physically pinned (an IP
consumer connects to the pads, so PI/PO identities survive).  This module
matches the suspect's gates to the golden design's gates by propagating
correspondences forward from the primary inputs, tolerating exactly the
kinds of local edits fingerprint variants make:

* a matched gate may have **extra inputs** beyond the golden gate's
  (the ODC trigger literals), possibly via new inverters;
* a single-input golden gate (INV/BUF) may appear **widened** to the
  NAND/NOR/AND/OR form its variants use.

The result maps suspect nets to golden nets; ``extract_structural`` then
runs the ordinary variant recognition over the translated netlist.  The
matcher is deterministic and linear-ish (keyed candidate lookup), not a
general graph-isomorphism search — which suffices because the anchored
DAG correspondence is unique up to identical twin gates, which strashing
removes from our mapped netlists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..netlist.circuit import Circuit, Gate
from .extract import ExtractionResult, extract
from .locations import LocationCatalog

#: Widened forms a unary golden gate may take in a fingerprinted suspect.
_UNARY_WIDENED = {
    "INV": ("NAND", "NOR"),
    "BUF": ("AND", "OR"),
}


def match_nets(
    golden: Circuit,
    suspect: Circuit,
    slot_targets: Optional[Set[str]] = None,
) -> Dict[str, str]:
    """Map suspect net names to golden net names.

    Anchored at the primary inputs (matched positionally) and propagated
    topologically: a suspect gate corresponds to a golden gate when its
    kind is the golden kind (or a legal widening of it) and the golden
    gate's inputs all appear, translated, among the suspect gate's inputs.
    Gates that match nothing (fingerprint inverters, adversarial logic)
    stay unmapped.  Raises ``ValueError`` on port-interface mismatch.
    """
    if len(golden.inputs) != len(suspect.inputs):
        raise ValueError("primary input counts differ")
    if len(golden.outputs) != len(suspect.outputs):
        raise ValueError("primary output counts differ")

    to_golden: Dict[str, str] = {}
    for golden_name, suspect_name in zip(golden.inputs, suspect.inputs):
        to_golden[suspect_name] = golden_name

    # Candidate index: golden gates keyed by (kind-or-base, arity class).
    golden_by_kind: Dict[str, List[Gate]] = {}
    for gate in golden.topological_order():
        golden_by_kind.setdefault(gate.kind, []).append(gate)

    matched_golden: Set[str] = set()

    # Primary outputs are physically pinned like the inputs, so their
    # driving gates correspond positionally up front.  This also resolves
    # the one kind of structural twin a deduplicated design may keep: two
    # identical gates that must both exist because both drive ports.
    for golden_po, suspect_po in zip(golden.outputs, suspect.outputs):
        if golden.driver(golden_po) is None or suspect.driver(suspect_po) is None:
            continue  # feed-through port; the PI seeding covers it
        if suspect_po not in to_golden and golden_po not in matched_golden:
            to_golden[suspect_po] = golden_po
            matched_golden.add(golden_po)

    def golden_candidates(suspect_gate: Gate) -> List[Gate]:
        kinds = [suspect_gate.kind]
        for unary, widened in _UNARY_WIDENED.items():
            if suspect_gate.kind in widened:
                kinds.append(unary)
        out: List[Gate] = []
        for kind in kinds:
            out.extend(golden_by_kind.get(kind, ()))
        return out

    targets = slot_targets or set()

    def try_match(
        suspect_gate: Gate, exact_only: bool, targets_only: Optional[bool] = None
    ) -> bool:
        translated = [to_golden.get(n) for n in suspect_gate.inputs]
        known = [t for t in translated if t is not None]
        if not known:
            return False
        known_multiset = sorted(known)
        for candidate in golden_candidates(suspect_gate):
            if candidate.name in matched_golden:
                continue
            if targets_only is not None and (candidate.name in targets) != targets_only:
                continue
            needed = sorted(candidate.inputs)
            if exact_only:
                # Untouched gate: same kind, identical input multiset.
                if (
                    candidate.kind == suspect_gate.kind
                    and len(known) == suspect_gate.n_inputs
                    and known_multiset == needed
                ):
                    to_golden[suspect_gate.name] = candidate.name
                    matched_golden.add(candidate.name)
                    return True
                continue
            # Modified gate: embedding appends trigger literals after the
            # original inputs, so the golden inputs must appear as the
            # translated *prefix* of the suspect's inputs, and the kind
            # change must be a legal widening.  (Prefix, not subset:
            # subset matching cross-assigns widened inverters whose added
            # literal is another inverter's source.)
            if len(candidate.inputs) >= suspect_gate.n_inputs:
                prefix_ok = False
            else:
                prefix_ok = all(
                    translated[i] == candidate.inputs[i]
                    for i in range(len(candidate.inputs))
                )
            if not prefix_ok:
                continue
            widening = (
                candidate.kind == suspect_gate.kind
                and suspect_gate.n_inputs > candidate.n_inputs
            ) or (
                candidate.kind in _UNARY_WIDENED
                and suspect_gate.kind in _UNARY_WIDENED[candidate.kind]
            )
            if not widening:
                continue
            to_golden[suspect_gate.name] = candidate.name
            matched_golden.add(candidate.name)
            return True
        return False

    order = suspect.topological_order()

    def run_pass(exact_only: bool, targets_only: Optional[bool], single: bool = False) -> bool:
        made = False
        for suspect_gate in order:
            if suspect_gate.name in to_golden:
                continue
            if try_match(suspect_gate, exact_only, targets_only):
                made = True
                if single:
                    return True
        return made

    # Exact matches are unambiguous (the catalog construction guarantees
    # no fingerprint inverter can impersonate a slot target), so exhaust
    # them to a fixpoint before admitting a single widened match — a
    # widened match taken too early, while a gate's inputs are still
    # unmapped, can steal a slot target from its true counterpart.
    while True:
        while run_pass(True, False) or run_pass(True, True):
            pass
        if run_pass(False, True, single=True):
            continue
        if run_pass(False, None, single=True):
            continue
        break
    # Primary outputs are pinned too: use them to resolve any PO driver
    # that structural propagation could not disambiguate.
    for golden_po, suspect_po in zip(golden.outputs, suspect.outputs):
        current = to_golden.get(suspect_po)
        if current is None:
            to_golden[suspect_po] = golden_po
    return to_golden


def rename_to_golden(
    golden: Circuit,
    suspect: Circuit,
    slot_targets: Optional[Set[str]] = None,
) -> Circuit:
    """Rebuild ``suspect`` with golden net names wherever a match exists.

    Unmatched nets (fingerprint inverters, foreign logic) get fresh
    ``um_<n>`` names so the result is a valid circuit for name-based
    extraction.
    """
    mapping = match_nets(golden, suspect, slot_targets=slot_targets)
    out = Circuit(suspect.name + "_aligned", suspect.library)
    fresh_index = 0
    renamed: Dict[str, str] = {}

    def translate(net: str) -> str:
        nonlocal fresh_index
        if net in mapping:
            return mapping[net]
        cached = renamed.get(net)
        if cached is None:
            cached = f"um_{fresh_index}"
            fresh_index += 1
            renamed[net] = cached
        return cached

    for net in suspect.inputs:
        out.add_input(translate(net))
    for gate in suspect.topological_order():
        out.add_gate(
            translate(gate.name),
            gate.kind,
            [translate(n) for n in gate.inputs],
            cell=gate.cell,
        )
    for net in suspect.outputs:
        out.add_output(translate(net))
    out.validate()
    return out


def extract_structural(
    suspect: Circuit,
    golden: Circuit,
    catalog: LocationCatalog,
) -> ExtractionResult:
    """Extraction that survives wholesale net renaming.

    Aligns the suspect to the golden design structurally, then runs the
    standard variant recognition.  The golden design must be free of
    structural twins (two gates with the same kind and input multiset):
    twins make the anchored matching ambiguous.  The IP owner controls
    the golden netlist, so the expected flow is::

        merge_duplicate_gates(design)     # strash-style dedupe, once
        catalog = find_locations(design)  # then build + embed as usual

    A golden design with twins raises ``ValueError``.
    """
    from ..netlist.transform import has_duplicate_gates

    if has_duplicate_gates(golden, ignore_output_twins=True):
        raise ValueError(
            "golden design has structural twin gates; run "
            "merge_duplicate_gates() on it before building the catalog"
        )
    targets = {slot.target for slot in catalog.slots()}
    aligned = rename_to_golden(golden, suspect, slot_targets=targets)
    return extract(aligned, golden, catalog)
