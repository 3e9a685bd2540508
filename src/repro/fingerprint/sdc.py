"""Satisfiability Don't Care (SDC) fingerprinting — the companion method.

The paper builds on the authors' SDC-based technique (reference [9],
Dunbar & Qu, ASP-DAC 2015): an input pattern that can *never occur* at a
gate's inputs is a satisfiability don't care, and the gate may be replaced
by any other cell that agrees with it on all patterns that do occur —
another functionality-preserving, hereditary, per-copy choice.

Implementation:

* **Care sets.** Bit-parallel simulation collects, per gate, the set of
  input patterns actually observed — exhaustively (exact care set) when
  the circuit has few primary inputs, or from random vectors otherwise.
* **Candidates.** A gate with an incomplete care set may be swapped for
  any same-arity library kind whose truth table matches on every observed
  pattern.
* **Verification.** Random care sets under-approximate reachability, so
  every candidate is verified before being admitted: the modified circuit
  is checked against the original (exhaustive simulation when exact,
  otherwise one CEC session over the original shared by every
  candidate).  Unsound candidates are rejected, making the catalogue
  safe regardless of how the care set was obtained.

Unlike ODC modifications — which really do change internal signal values
whenever the trigger activates the ODC — an SDC swap leaves *every net's
value unchanged on every reachable input vector*.  SDC modifications
therefore compose trivially, and they also compose with ODC embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cells import functions
from ..cells.library import CellLibrary
from ..netlist.circuit import Circuit, NetlistError
from ..sat.incremental import IncrementalCecSession
from ..sim.equivalence import exhaustive_equivalent
from ..sim.simulator import Simulator
from ..sim.vectors import MAX_EXHAUSTIVE_INPUTS, exhaustive_stimulus, exhaustive_vector_count, random_stimulus
from .capacity import FingerprintCodec

#: Gate kinds considered for SDC swaps (multi-input, library-backed).
_SWAPPABLE = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")

#: Number and seed of the random vectors that sample care sets of
#: circuits too wide to simulate exhaustively.
SDC_RANDOM_VECTORS = 8192
SDC_SEED = 0


@dataclass(frozen=True)
class SdcSlot:
    """One gate that can be swapped among several equivalent kinds.

    ``alternatives`` excludes the original kind; configuration 0 keeps the
    original, configuration ``i >= 1`` swaps to ``alternatives[i - 1]``.
    ``care_patterns`` is the number of observed input patterns out of
    ``2**arity``.
    """

    target: str
    original_kind: str
    arity: int
    care_patterns: int
    alternatives: Tuple[str, ...]

    @property
    def n_configs(self) -> int:
        return len(self.alternatives) + 1


@dataclass
class SdcCatalog:
    """All verified SDC slots of one circuit."""

    circuit_name: str
    slots: List[SdcSlot] = field(default_factory=list)
    exact_care_sets: bool = True

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def slot_by_target(self, target: str) -> SdcSlot:
        for slot in self.slots:
            if slot.target == target:
                return slot
        raise KeyError(f"no SDC slot targets {target!r}")

    @property
    def combinations(self) -> int:
        total = 1
        for slot in self.slots:
            total *= slot.n_configs
        return total

    @property
    def bits(self) -> float:
        return math.log2(self.combinations) if self.combinations > 1 else 0.0

    def __iter__(self):
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)


def observed_patterns(
    circuit: Circuit,
    n_random_vectors: int = SDC_RANDOM_VECTORS,
) -> Tuple[Dict[str, int], bool]:
    """Per-gate mask of observed input patterns.

    Returns ``(masks, exact)`` where ``masks[gate]`` has bit ``p`` set when
    input pattern ``p`` (gate input ``i`` contributing bit ``i``) occurred,
    and ``exact`` records whether the stimulus was exhaustive (up to
    :data:`~repro.sim.vectors.MAX_EXHAUSTIVE_INPUTS` inputs).
    """
    n_inputs = len(circuit.inputs)
    exact = n_inputs <= MAX_EXHAUSTIVE_INPUTS
    if exact:
        stimulus = exhaustive_stimulus(circuit.inputs)
        n_vectors = exhaustive_vector_count(n_inputs)
    else:
        stimulus = random_stimulus(circuit.inputs, n_random_vectors, seed=SDC_SEED)
        n_vectors = n_random_vectors
    values = Simulator(circuit).run(stimulus)

    masks: Dict[str, int] = {}
    for gate in circuit.gates:
        if not gate.inputs:
            continue
        words = [values[n] for n in gate.inputs]
        bits = [
            np.unpackbits(w.view(np.uint8), bitorder="little")[:n_vectors]
            for w in words
        ]
        patterns = np.zeros(n_vectors, dtype=np.int64)
        for i, b in enumerate(bits):
            patterns |= b.astype(np.int64) << i
        mask = 0
        for p in np.unique(patterns):
            mask |= 1 << int(p)
        masks[gate.name] = mask
    return masks, exact


def _kinds_matching_on(kind: str, arity: int, care_mask: int, library: CellLibrary) -> List[str]:
    """Same-arity kinds agreeing with ``kind`` on every care pattern."""
    base_table = functions.truth_table(kind, arity)
    matches = []
    for candidate in _SWAPPABLE:
        if candidate == kind:
            continue
        if library.try_find(candidate, arity) is None:
            continue
        table = functions.truth_table(candidate, arity)
        if (table ^ base_table) & care_mask == 0:
            matches.append(candidate)
    return matches


def find_sdc_slots(
    circuit: Circuit,
    max_slots: Optional[int] = None,
) -> SdcCatalog:
    """Discover verified SDC fingerprint slots in ``circuit``.

    With exact care sets (exhaustively simulable circuits) candidates are
    sound by construction, but we still verify each admitted swap; with
    sampled care sets, verification (SAT CEC) is what makes the catalogue
    sound.  SAT checks share one CEC session over ``circuit``, built on
    first use; a session's verdict depends only on the base and the copy.
    """
    masks, exact = observed_patterns(circuit)
    session: Optional[IncrementalCecSession] = None
    catalog = SdcCatalog(circuit.name, exact_care_sets=exact)
    for gate in circuit.topological_order():
        if max_slots is not None and len(catalog.slots) >= max_slots:
            break
        if gate.kind not in _SWAPPABLE:
            continue
        if len(set(gate.inputs)) != gate.n_inputs:
            continue
        mask = masks.get(gate.name, 0)
        full = (1 << (1 << gate.n_inputs)) - 1
        if mask == full:
            continue  # no don't cares at this gate
        candidates = _kinds_matching_on(
            gate.kind, gate.n_inputs, mask, circuit.library
        )
        admitted = []
        for kind in candidates:
            trial = circuit.clone("sdc_trial")
            trial.replace_gate(gate.name, kind, list(gate.inputs))
            if exact:
                equivalent = exhaustive_equivalent(circuit, trial).equivalent
            else:
                if session is None:
                    session = IncrementalCecSession(circuit)
                equivalent = session.verify(trial).equivalent
            if equivalent:
                admitted.append(kind)
        if not admitted:
            continue
        catalog.slots.append(
            SdcSlot(
                target=gate.name,
                original_kind=gate.kind,
                arity=gate.n_inputs,
                care_patterns=bin(mask).count("1"),
                alternatives=tuple(admitted),
            )
        )
    return catalog


class SdcFingerprint:
    """An SDC fingerprint copy under construction or analysis."""

    def __init__(self, base: Circuit, catalog: SdcCatalog, name: Optional[str] = None):
        self.base = base
        self.catalog = catalog
        self.circuit = base.clone(name or f"{base.name}_sdc")
        self._applied: Dict[str, int] = {}

    @property
    def applied(self) -> Dict[str, int]:
        return dict(self._applied)

    def apply(self, target: str, configuration: int) -> None:
        """Set one slot (0 restores the original kind)."""
        slot = self.catalog.slot_by_target(target)
        if not 0 <= configuration <= len(slot.alternatives):
            raise ValueError(
                f"slot {target}: configuration {configuration} out of range"
            )
        original = self.base.gate(target)
        if configuration == 0:
            self.circuit.replace_gate(
                target, original.kind, original.inputs, cell=original.cell
            )
            self._applied.pop(target, None)
            return
        kind = slot.alternatives[configuration - 1]
        self.circuit.replace_gate(target, kind, list(original.inputs))
        self._applied[target] = configuration

    def apply_assignment(self, assignment: Dict[str, int]) -> None:
        for target, configuration in assignment.items():
            self.apply(target, configuration)

    def assignment(self) -> Dict[str, int]:
        return {
            slot.target: self._applied.get(slot.target, 0)
            for slot in self.catalog
        }


def sdc_embed(
    base: Circuit,
    catalog: SdcCatalog,
    assignment: Dict[str, int],
    name: Optional[str] = None,
) -> SdcFingerprint:
    """Produce an SDC fingerprint copy realizing ``assignment``."""
    copy = SdcFingerprint(base, catalog, name=name)
    copy.apply_assignment(assignment)
    copy.circuit.validate()
    return copy


def sdc_extract(suspect: Circuit, base: Circuit, catalog: SdcCatalog) -> Dict[str, int]:
    """Read an SDC fingerprint back from a suspect netlist.

    Unknown structures read as configuration -1 (tampered).
    """
    assignment: Dict[str, int] = {}
    for slot in catalog:
        try:
            gate = suspect.gate(slot.target)
        except NetlistError:
            assignment[slot.target] = -1
            continue
        original = base.gate(slot.target)
        if gate.inputs != original.inputs:
            assignment[slot.target] = -1
        elif gate.kind == slot.original_kind:
            assignment[slot.target] = 0
        elif gate.kind in slot.alternatives:
            assignment[slot.target] = slot.alternatives.index(gate.kind) + 1
        else:
            assignment[slot.target] = -1
    return assignment


class SdcCodec(FingerprintCodec):
    """Mixed-radix codec over an SDC catalog: :class:`FingerprintCodec`'s
    encoding with the catalog's SDC slots as its digits."""

    @staticmethod
    def _digit_slots(catalog: SdcCatalog) -> List[SdcSlot]:
        return list(catalog.slots)
