"""Fingerprint location discovery (paper Definition 1 and Fig. 6).

A fingerprint location is anchored at a *primary gate* P that creates ODCs
and takes one input Y from a fanout-free cone (FFC); any other input X of P
is an ODC trigger.  Per the paper's pseudo-code we pick Y as the deepest
eligible fanin and X as the earliest-arriving other input (minimizing the
rerouted signal's delay impact), then enumerate every modifiable gate of
the FFC as a :class:`~repro.fingerprint.modifications.Slot` with its
feasible variants.

The four criteria of Definition 1 map to code as follows:

1. P has an input that is not a primary input — implied by 2.
2. Some input Y of P is the output of an FFC — Y's driver exists, Y feeds
   only P, and Y is not a primary output.
3. The FFC contains a gate with non-zero ODC or a single-input gate and
   the library can widen it — a slot with at least one feasible variant.
4. P has non-zero ODC w.r.t. an input other than Y — P has a controlling
   value and arity >= 2, so any other input X qualifies.

Every admitted location is unobservable by construction, so the finder
runs no ODC check of its own:

* the root Y is not a primary output and is read only by P, so every
  path from the FFC to a primary output passes through P;
* P has no repeated input, so Y reaches P on exactly one pin;
* the trigger X is another non-constant input of P, taken at P's
  controlling value, and lies outside Y's fanout cone (Y feeds only P).

While X holds that value P's output is fixed whatever Y carries, so no
change inside the FFC reaches a primary output.
``tests/test_locations_differential.py`` checks every admitted
``(ffc_root, trigger, trigger_value)`` against exhaustive simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..cells import functions
from ..ir import compile_circuit
from ..netlist.circuit import Circuit, Gate
from ..netlist.graph import fanout_free_cone
from .modifications import Slot, slot_variants


@dataclass(frozen=True)
class FinderOptions:
    """Policy knobs for the location finder.

    ``trigger_choice`` and ``root_choice`` reproduce the paper's depth
    heuristics by default and expose alternatives for ablations.
    ``allow_xor_targets`` is an extension beyond the paper (XOR gates have
    an identity element and can absorb literals even though they create no
    ODCs); it is off by default to match the paper.
    ``max_slots_per_location`` caps the slots enumerated per location
    (``None`` for no cap, otherwise at least 1).
    """

    allow_xor_targets: bool = False
    enable_reroute: bool = True
    trigger_choice: str = "lowest_depth"
    # | "highest_depth" | "random" | "min_activity"
    root_choice: str = "highest_depth"  # | "lowest_depth" | "random"
    max_slots_per_location: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        valid_triggers = ("lowest_depth", "highest_depth", "random", "min_activity")
        if self.trigger_choice not in valid_triggers:
            raise ValueError(f"bad trigger_choice {self.trigger_choice!r}")
        if self.root_choice not in ("highest_depth", "lowest_depth", "random"):
            raise ValueError(f"bad root_choice {self.root_choice!r}")
        if self.max_slots_per_location is not None and self.max_slots_per_location < 1:
            raise ValueError(
                f"max_slots_per_location must be >= 1 or None, "
                f"got {self.max_slots_per_location!r}"
            )


@dataclass(frozen=True)
class FingerprintLocation:
    """One Definition-1 location with its enumerated slots."""

    id: int
    primary: str
    primary_kind: str
    ffc_root: str
    trigger: str
    trigger_value: int
    ffc_gates: Tuple[str, ...]
    slots: Tuple[Slot, ...]

    @property
    def n_configurations(self) -> int:
        """Configurations of this location (product over its slots)."""
        total = 1
        for slot in self.slots:
            total *= slot.n_configs
        return total


@dataclass
class LocationCatalog:
    """All fingerprint locations found in one circuit."""

    circuit_name: str
    locations: List[FingerprintLocation] = field(default_factory=list)

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def slots(self) -> List[Slot]:
        """Flat slot list in deterministic (location, slot) order."""
        return [slot for location in self.locations for slot in location.slots]

    def slot_by_target(self, target: str) -> Slot:
        for slot in self.slots():
            if slot.target == target:
                return slot
        raise KeyError(f"no slot targets gate {target!r}")

    def __len__(self) -> int:
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)


def _eligible_roots(circuit: Circuit, primary: Gate) -> List[str]:
    """Inputs of ``primary`` that are FFC outputs feeding only ``primary``."""
    roots = []
    for net in primary.inputs:
        driver = circuit.driver(net)
        if driver is None or driver.kind in ("CONST0", "CONST1"):
            continue
        if circuit.is_output(net):
            continue
        consumers = circuit.fanouts(net)
        if len(consumers) == 1 and consumers[0] == primary.name:
            roots.append(net)
    return roots


def _choose(nets: Sequence[str], levels: Dict[str, int], policy: str, rng) -> str:
    if policy == "random":
        return rng.choice(list(nets))
    deepest = policy in ("highest_depth",)
    key = lambda n: (levels.get(n, 0), n)  # noqa: E731 - tiny tie-broken key
    return max(nets, key=key) if deepest else min(nets, key=key)


def find_locations(
    circuit: Circuit,
    options: Optional[FinderOptions] = None,
) -> LocationCatalog:
    """Enumerate fingerprint locations in deterministic topological order.

    Each gate is used as a slot target at most once across the catalog, so
    every slot can be toggled independently of all others.

    With an artifact store active (:func:`repro.store.active_store`) the
    catalog is content-addressed by the circuit's canonical structural
    digest plus a digest of the finder options, so resubmitting an
    identical netlist skips the whole discovery pass (disk-tier cacheable:
    catalogs are plain picklable dataclasses).
    """
    from ..store.core import active_store

    store = active_store()
    if store is not None:
        from dataclasses import asdict

        from ..hashing import circuit_digest, options_digest

        key = "{}-{}".format(
            circuit_digest(circuit),
            options_digest(asdict(options or FinderOptions())),
        )
        return store.get_or_compute(
            "catalog", key, lambda: _traced_find(circuit, options)
        )
    return _traced_find(circuit, options)


def _traced_find(
    circuit: Circuit,
    options: Optional[FinderOptions],
) -> LocationCatalog:
    with telemetry.span(
        "fingerprint.locate", design=circuit.name, gates=circuit.n_gates
    ) as locate_span:
        catalog = _find_locations(circuit, options)
        locate_span.set(locations=len(catalog.locations))
    telemetry.count("fingerprint.catalogs")
    return catalog


def _find_locations(
    circuit: Circuit,
    options: Optional[FinderOptions],
) -> LocationCatalog:
    options = options or FinderOptions()
    rng = random.Random(options.seed)
    compiled = compile_circuit(circuit)
    levels = compiled.levels_by_name()
    probabilities: Optional[Dict[str, float]] = None
    if options.trigger_choice == "min_activity":
        # Power-aware extension: prefer triggers that rarely sit at the
        # primary gate's controlling value, so the ODC is rarely active
        # and the modified cone rarely toggles with the trigger.
        from ..power.activity import propagate_probabilities

        probabilities = propagate_probabilities(circuit)
    catalog = LocationCatalog(circuit.name)
    # Inverter reuse bookkeeping: an inverter referenced by some variant's
    # complemented literal (`reused`) must never become a slot target, and
    # a slot target must never be reused — otherwise widening the inverter
    # corrupts every literal that reads its output.  Both sets grow
    # monotonically during the scan, and the final exclusion set equals
    # the catalog's target set, so embedding/extraction reproduce the
    # same reuse decisions from the catalog alone.
    inverter_lists: Dict[str, List[str]] = {}
    for gate in circuit.gates:
        if gate.kind == "INV":
            inverter_lists.setdefault(gate.inputs[0], []).append(gate.name)
    reused_inverters: set = set()
    # Sources whose complement some variant references; any inverter of
    # such a source is banned as a target (and vice versa: once an INV
    # gate is a target, its source is banned for negative literals), so
    # fingerprint inverters never alias with modifiable gates.
    negative_sources_used: set = set()
    banned_negative_sources: set = set()
    used_targets: set = set()
    location_id = 0
    # Each source's first inverter that is not a slot target.  An INV
    # gate that becomes a target marks its source stale, and stale
    # sources refresh at the next lookup, so the dict read after
    # ``used_targets.add`` is still the one ``slot_variants`` saw.
    effective = {source: names[0] for source, names in inverter_lists.items()}
    stale_sources: set = set()

    def effective_inverters() -> Dict[str, str]:
        for source in stale_sources:
            for name in inverter_lists[source]:
                if name not in used_targets:
                    effective[source] = name
                    break
            else:
                effective.pop(source, None)
        stale_sources.clear()
        return effective

    for primary in compiled.gates_in_order():
        if not functions.has_odc(primary.kind, primary.n_inputs):
            continue
        if len(set(primary.inputs)) != len(primary.inputs):
            continue  # repeated nets make the local ODC analysis ambiguous
        roots = _eligible_roots(circuit, primary)
        if not roots:
            continue
        root = _choose(roots, levels, options.root_choice, rng)
        triggers = [n for n in primary.inputs if n != root]
        trigger_gate_kinds = {
            n: (circuit.driver(n).kind if circuit.driver(n) else None)
            for n in triggers
        }
        triggers = [
            n for n in triggers if trigger_gate_kinds[n] not in ("CONST0", "CONST1")
        ]
        if not triggers:
            continue
        trigger_value = functions.controlling_value(primary.kind)
        if probabilities is not None:
            def activation(net: str) -> float:
                p_one = probabilities.get(net, 0.5)
                return p_one if trigger_value == 1 else 1.0 - p_one

            trigger = min(triggers, key=lambda n: (activation(n), n))
        else:
            trigger = _choose(triggers, levels, options.trigger_choice, rng)

        ffc = fanout_free_cone(circuit, root)
        slots: List[Slot] = []
        # IR interned IDs are topologically numbered, so the FFC's
        # members sort into evaluation order directly — no full-netlist
        # walk per location.
        for gate in compiled.gates_sorted(ffc):
            if gate.name in used_targets:
                continue
            if gate.name in reused_inverters:
                continue  # some variant reads this inverter's output
            if gate.kind == "INV" and gate.inputs[0] in negative_sources_used:
                continue  # a variant's literal realizes as (a twin of) it
            modifiable = (
                functions.has_odc(gate.kind, gate.n_inputs)
                or gate.n_inputs == 1
                or (options.allow_xor_targets and gate.kind in ("XOR", "XNOR"))
            )
            if not modifiable:
                continue
            inverters = effective_inverters()
            variants = slot_variants(
                circuit,
                gate,
                trigger,
                trigger_value,
                allow_xor_targets=options.allow_xor_targets,
                enable_reroute=options.enable_reroute,
                inverters=inverters,
                banned_negative_sources=banned_negative_sources,
            )
            if not variants:
                continue
            used_targets.add(gate.name)
            if gate.kind == "INV":
                banned_negative_sources.add(gate.inputs[0])
                stale_sources.add(gate.inputs[0])
            for variant in variants:
                for literal in variant.literals:
                    if literal.positive:
                        continue
                    negative_sources_used.add(literal.net)
                    if literal.net in inverters:
                        reused_inverters.add(inverters[literal.net])
            slots.append(
                Slot(
                    location_id=location_id,
                    primary=primary.name,
                    target=gate.name,
                    target_kind=gate.kind,
                    trigger=trigger,
                    trigger_value=trigger_value,
                    variants=tuple(variants),
                )
            )
            if (
                options.max_slots_per_location is not None
                and len(slots) >= options.max_slots_per_location
            ):
                break
        if not slots:
            continue
        catalog.locations.append(
            FingerprintLocation(
                id=location_id,
                primary=primary.name,
                primary_kind=primary.kind,
                ffc_root=root,
                trigger=trigger,
                trigger_value=trigger_value,
                ffc_gates=tuple(sorted(ffc)),
                slots=tuple(slots),
            )
        )
        location_id += 1
    return catalog
