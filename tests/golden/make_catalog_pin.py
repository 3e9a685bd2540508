"""Record the location-catalog pin: every catalog field, exactly.

Each case builds one or more circuits and runs
:func:`repro.fingerprint.find_locations` on each with the default
:class:`FinderOptions`.  The pin keeps, per circuit, its name, a digest
of the circuit itself, the location and slot counts and a sha256 over
every catalog field in order: each location's id, primary gate and
kind, FFC root, trigger, trigger value and FFC gates, and each slot's
location, primary, target, target kind, trigger, trigger value and
variants (kind, literals with polarity, source).
``tests/test_catalog_pin.py`` reruns the cases and requires the same
outcomes, so a change to the finder must admit exactly the locations the
recording finder did.

The cases:

* ``c17``, its mutants, eight small random circuits and the mutants of
  one of them, and the bundled C432, C499, C880, k2 and i10 — checked
  in tier-1;
* the other nine bundled designs and a 210-circuit population (150
  random circuits of 40-100 gates, 60 mutants of 50-gate circuits) —
  checked under ``-m differential``.

Regenerate only when a change is *meant* to alter which locations the
finder admits, and then run the parent's finder first to see what moved.
From the repository root::

    PYTHONPATH=src python -m tests.golden.make_catalog_pin
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench import RandomLogicSpec, generate
from repro.bench.data import data_path
from repro.bench.suite import SUITE_ORDER, build_benchmark
from repro.faultinject import GateKindSwap, StuckAtNet
from repro.fingerprint import find_locations
from repro.hashing import circuit_digest
from repro.netlist import read_blif
from repro.netlist.circuit import Circuit
from repro.techmap import map_network

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog_pin.json")

#: Bundled designs whose catalogs tier-1 checks.
TIER1_DESIGNS = ("C432", "C499", "C880", "k2", "i10")

#: The random population: plain circuits and mutants of fresh bases.
POPULATION_SEEDS = range(150)
POPULATION_MUTANT_SEEDS = range(60)


def small_circuit(seed: int, n_gates: int = 60, n_inputs: int = 8,
                  n_outputs: int = 3) -> Circuit:
    return generate(
        RandomLogicSpec(
            name=f"diff{seed}",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_gates=n_gates,
            seed=seed,
        )
    )


def mutated_variants(base: Circuit, n_variants: int, seed: int) -> List[Circuit]:
    """Functionally mutated (still valid) clones of ``base``."""
    rng = random.Random(seed)
    mutators = [GateKindSwap(), StuckAtNet()]
    variants = []
    for index in range(n_variants):
        mutant = base.clone(f"{base.name}_m{index}")
        try:
            rng.choice(mutators).apply(mutant, rng)
            mutant.validate()
        except Exception:
            continue  # mutation landed somewhere unusable; skip it
        variants.append(mutant)
    return variants


def c17() -> Circuit:
    return map_network(read_blif(data_path("c17.blif")))


def catalog_record(catalog) -> list:
    """Every field of a catalog, in order, as plain JSON values."""
    return [
        [
            loc.id, loc.primary, loc.primary_kind, loc.ffc_root, loc.trigger,
            loc.trigger_value, list(loc.ffc_gates),
            [
                [
                    slot.location_id, slot.primary, slot.target, slot.target_kind,
                    slot.trigger, slot.trigger_value,
                    [
                        [v.kind, [[lit.net, lit.positive] for lit in v.literals], v.source]
                        for v in slot.variants
                    ],
                ]
                for slot in loc.slots
            ],
        ]
        for loc in catalog
    ]


def _sha(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def circuit_outcome(circuit: Circuit) -> list:
    """What the pin records about one circuit's catalog."""
    catalog = find_locations(circuit)
    return [
        circuit.name,
        circuit_digest(circuit)[:16],
        catalog.n_locations,
        len(catalog.slots()),
        _sha(catalog_record(catalog)),
    ]


def cases() -> Dict[str, Tuple[bool, Callable[[], List[Circuit]]]]:
    """Case name -> (checked in tier-1, builder of its circuits)."""
    table: Dict[str, Tuple[bool, Callable[[], List[Circuit]]]] = {
        "c17": (True, lambda: [c17()]),
        "c17-mutants": (True, lambda: mutated_variants(c17(), 6, seed=5)),
    }
    for seed in range(8):
        table[f"random-{seed}"] = (True, lambda s=seed: [small_circuit(s)])
    table["random-7-mutants"] = (
        True, lambda: mutated_variants(small_circuit(7), 4, seed=7)
    )
    for name in SUITE_ORDER:
        table[f"bench-{name}"] = (
            name in TIER1_DESIGNS, lambda n=name: [build_benchmark(n)]
        )
    for seed in POPULATION_SEEDS:
        table[f"population-{seed}"] = (
            False,
            lambda s=seed: [small_circuit(s + 1000, n_gates=40 + (s % 5) * 15)],
        )
    for seed in POPULATION_MUTANT_SEEDS:
        table[f"population-mutant-{seed}"] = (
            False,
            lambda s=seed: mutated_variants(small_circuit(s + 5000, n_gates=50), 1, seed=s),
        )
    return table


def case_outcome(name: str) -> list:
    _, build = cases()[name]
    return [circuit_outcome(circuit) for circuit in build()]


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    catalogs = {}
    for name, (tier1, _) in cases().items():
        catalogs[name] = {"tier1": tier1, "circuits": case_outcome(name)}
        print(name, [c[2:4] for c in catalogs[name]["circuits"]], flush=True)
    pin = {"schema": 1, "catalogs": catalogs}
    with open(out, "w") as handle:
        json.dump(pin, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
