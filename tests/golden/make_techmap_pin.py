"""Record the mapper pin: every mapped netlist, gate by gate, in order.

Each case maps one BLIF text with :func:`repro.techmap.map_network`.  The
pin keeps, per case, a sha256 over the gate table in ``gate_names()``
order (each gate's name, cell name and inputs), the primary input and
output lists, a sha256 of the ``write_verilog`` bytes and the gate count.
``tests/test_techmap_pin.py`` maps the cases again and requires the same
record, so a change to the mapper or to the clean-up passes it runs
(``repro.netlist.transform.cleanup``) must emit exactly the netlists the
recording code did, down to the order of the gate table.

That order is observable: it drives ``topological_order()``, the IR's
net ids, the order of the location catalog and the Verilog ``wire``
list.  The location-catalog pin cannot see it, because it builds its
designs without the mapper and digests circuits with their gates sorted
by name.

The cases:

* the bundled ``c17.blif``, C432, C499, C880, k2 and i10 in the ``aoi``
  style, and eight seeded random circuits carrying the buffer sweep's
  edge cases in every style (``aig`` strashes their buffers away before
  the sweep) — checked in tier-1;
* the other bundled designs in ``aoi``, all fourteen in ``nand`` and
  ``aig``, and ``minimize=True`` on c17 and C432 — checked under
  ``-m differential``.

The bundled designs are written to BLIF with ``write_blif`` and parsed
back, so the mapper sees the BLIF text a user would hand it.

Regenerate only when a change is *meant* to alter mapped netlists, and
then run the parent's mapper first to see what moved.  From the
repository root::

    PYTHONPATH=src python -m tests.golden.make_techmap_pin
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Callable, Dict, Sequence, Tuple

from repro.bench import RandomLogicSpec, generate
from repro.bench.data import data_path
from repro.bench.suite import SUITE_ORDER, build_benchmark
from repro.netlist import parse_blif, write_blif, write_verilog
from repro.netlist.circuit import Circuit
from repro.techmap import map_network

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "techmap_pin.json")

STYLES = ("aoi", "nand", "aig")

#: Bundled designs whose ``aoi`` mapping tier-1 checks.
TIER1_DESIGNS = ("C432", "C499", "C880", "k2", "i10")

#: Seeds of the random circuits with grafted buffer structures.
BUFFER_SEEDS = range(8)


def buffered_circuit(seed: int) -> Circuit:
    """A seeded random circuit with the buffer sweep's edge cases grafted on.

    The grafts read seeded nets of the random circuit and each drives a
    new primary output:

    * a three-buffer chain with side fanout from its first buffer;
    * a buffer of ``AND(net, 1)``: constant propagation turns the AND
      into a buffer and moves it to the end of the gate table, so the
      downstream buffer precedes its upstream one when the sweep runs;
    * a gate reading one buffer on both pins, and one reading two;
    * a buffer feeding a primary-output buffer;
    * a buffer of a constant feeding an OR.
    """
    rng = random.Random(seed)
    circuit = generate(RandomLogicSpec(
        name=f"buf{seed}", n_inputs=8, n_outputs=3, n_gates=60, seed=seed,
    ))
    nets = circuit.gate_names() + circuit.inputs

    def pick() -> str:
        return nets[int(rng.random() * len(nets))]

    circuit.add_gate("x_c1", "BUF", [pick()])
    circuit.add_gate("x_c2", "BUF", ["x_c1"])
    circuit.add_gate("x_c3", "BUF", ["x_c2"])
    circuit.add_gate("x_chain", "NAND", ["x_c3", pick()])
    circuit.add_gate("x_side", "OR", ["x_c1", pick()])
    circuit.add_outputs(["x_chain", "x_side"])

    circuit.add_gate("x_one", "CONST1", [])
    circuit.add_gate("x_up", "AND", [pick(), "x_one"])
    circuit.add_gate("x_down", "BUF", ["x_up"])
    circuit.add_gate("x_late", "XOR", ["x_down", pick()])
    circuit.add_output("x_late")

    circuit.add_gate("x_b", "BUF", [pick()])
    circuit.add_gate("x_twice", "AND", ["x_b", "x_b"])
    circuit.add_gate("x_b1", "BUF", [pick()])
    circuit.add_gate("x_b2", "BUF", [pick()])
    circuit.add_gate("x_pair", "NOR", ["x_b1", "x_b2", "x_b"])
    circuit.add_outputs(["x_twice", "x_pair"])

    circuit.add_gate("x_inner", "BUF", [pick()])
    circuit.add_gate("x_po", "BUF", ["x_inner"])
    circuit.add_output("x_po")

    circuit.add_gate("x_zero", "CONST0", [])
    circuit.add_gate("x_kbuf", "BUF", ["x_zero"])
    circuit.add_gate("x_kor", "OR", ["x_kbuf", pick()])
    circuit.add_output("x_kor")
    circuit.validate()
    return circuit


def _sha(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def netlist_record(circuit: Circuit) -> Dict[str, object]:
    """What the pin records about one mapped netlist."""
    table = []
    for name in circuit.gate_names():
        gate = circuit.gate(name)
        table.append([name, gate.cell.name, list(gate.inputs)])
    return {
        "gates": _sha(table),
        "inputs": circuit.inputs,
        "outputs": circuit.outputs,
        "verilog": hashlib.sha256(write_verilog(circuit).encode()).hexdigest(),
        "n_gates": circuit.n_gates,
    }


def _bundled_blif(design: str) -> str:
    return write_blif(build_benchmark(design))


def _c17_blif() -> str:
    with open(data_path("c17.blif")) as handle:
        return handle.read()


#: Case name -> (checked in tier-1, BLIF text builder, style, minimize).
Case = Tuple[bool, Callable[[], str], str, bool]


def cases() -> Dict[str, Case]:
    table: Dict[str, Case] = {
        "c17": (True, _c17_blif, "aoi", False),
        "c17-minimize": (False, _c17_blif, "aoi", True),
        "C432-minimize": (False, lambda: _bundled_blif("C432"), "aoi", True),
    }
    for seed in BUFFER_SEEDS:
        for style in STYLES:
            table[f"buffers-{seed}-{style}"] = (
                True, lambda s=seed: write_blif(buffered_circuit(s)), style, False
            )
    for name in SUITE_ORDER:
        for style in STYLES:
            table[f"bench-{name}-{style}"] = (
                style == "aoi" and name in TIER1_DESIGNS,
                lambda n=name: _bundled_blif(n),
                style,
                False,
            )
    return table


def case_outcome(name: str) -> Dict[str, object]:
    _, blif, style, minimize = cases()[name]
    circuit = map_network(parse_blif(blif()), style=style, minimize=minimize)
    return netlist_record(circuit)


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    records = {}
    for name, (tier1, *_rest) in cases().items():
        records[name] = {"tier1": tier1, "netlist": case_outcome(name)}
        print(name, records[name]["netlist"]["n_gates"], flush=True)
    pin = {"schema": 1, "cases": records}
    with open(out, "w") as handle:
        json.dump(pin, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
