"""Record the timing pin: every delay, arrival and required time, bit for bit.

Each timing case builds one circuit and runs static timing analysis on it
under four delay models: ``WIRE_DELAY`` (the default), ``LIBRARY_DELAY``,
``UNIT_DELAY`` and ``WireDelay(per_level=0.7)``.  Per case and model the
pin keeps ``critical_delay(...).hex()``, the ``critical_path_nets(...)``
list and a sha256 over the full ``analyze`` report: its critical delay
and path, every net's arrival and required time and every gate's delay,
each float written with ``float.hex``.  ``tests/test_timing_pin.py``
reruns the cases and requires the same record, so a change to the STA
engine or to the delay models must reproduce every float exactly, not
just to a tolerance.

Each constraint case runs one overhead-constrained heuristic on the
full embedding of a bundled design under the default delay model and
keeps its steps, the modifications it kept, its baseline and final
delay (as ``float.hex``) and its surviving fingerprint bits.

The cases:

* timing: ``c17`` and the bundled C432, C499, C880 and k2, each base
  design and its full embedding (one modification per location, the
  paper's maximal fingerprint) — checked in tier-1; the other nine
  bundled designs and their full embeddings under ``-m differential``;
* constraints: ``reactive_delay_constrain`` on C432 at 10 %, 5 % and 1 %
  and ``proactive_delay_constrain`` on C432 at 10 % — checked in tier-1;
  ``reactive_delay_constrain`` on C499 and C880 at the same three
  constraints under ``-m differential``.

Regenerate only when a change is *meant* to alter a delay, and then run
the parent's timing code first to see which cases moved.  From the
repository root::

    PYTHONPATH=src python -m tests.golden.make_timing_pin
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Callable, Dict, Sequence, Tuple

from repro.bench.suite import SUITE_ORDER, build_benchmark
from repro.fingerprint import embed, find_locations, full_assignment
from repro.fingerprint.constraints import (
    ConstraintResult,
    proactive_delay_constrain,
    reactive_delay_constrain,
)
from repro.hashing import circuit_digest
from repro.netlist.circuit import Circuit
from repro.timing import (
    LIBRARY_DELAY,
    UNIT_DELAY,
    WIRE_DELAY,
    WireDelay,
    analyze,
    critical_delay,
    critical_path_nets,
)
from tests.golden.make_catalog_pin import c17

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "timing_pin.json")

#: Delay models every timing case runs under, by record key.
MODELS = {
    "wire": WIRE_DELAY,
    "library": LIBRARY_DELAY,
    "unit": UNIT_DELAY,
    "wire-0.7": WireDelay(per_level=0.7),
}

#: Bundled designs whose timing cases tier-1 checks.
TIER1_DESIGNS = ("C432", "C499", "C880", "k2")

#: Designs and delay constraints of the reactive constraint cases.
REACTIVE_DESIGNS = ("C432", "C499", "C880")
CONSTRAINTS = (0.10, 0.05, 0.01)


def full_embedding(base: Circuit) -> Circuit:
    """``base`` with one modification per location (the paper's maximum)."""
    catalog = find_locations(base)
    return embed(base, catalog, full_assignment(base, catalog)).circuit


def _sha(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def timing_record(circuit: Circuit) -> Dict[str, object]:
    """What the pin records about one circuit, per delay model."""
    record: Dict[str, object] = {"input": circuit_digest(circuit)[:16]}
    for key, model in MODELS.items():
        report = analyze(circuit, model)
        nets = sorted(report.arrival)
        full = [
            report.critical_delay.hex(),
            report.critical_path,
            [[n, report.arrival[n].hex(), report.required[n].hex()] for n in nets],
            [[g, report.gate_delays[g].hex()] for g in sorted(report.gate_delays)],
        ]
        record[key] = {
            "critical_delay": critical_delay(circuit, model).hex(),
            "critical_path": critical_path_nets(circuit, model),
            "report": _sha(full),
        }
    return record


def constraint_record(result: ConstraintResult) -> Dict[str, object]:
    """What the pin records about one constrained run."""
    return {
        "baseline_delay": result.baseline_delay.hex(),
        "final_delay": result.final_delay.hex(),
        "met": result.met_constraint,
        "steps": [list(step) for step in result.steps],
        "kept": [list(item) for item in sorted(result.fingerprinted.applied.items())],
        "surviving_bits": result.surviving_bits.hex(),
    }


def _reactive(design: str, constraint: float) -> Dict[str, object]:
    base = build_benchmark(design)
    catalog = find_locations(base)
    fp = embed(base, catalog, full_assignment(base, catalog))
    return constraint_record(reactive_delay_constrain(fp, constraint))


def _proactive(design: str, constraint: float) -> Dict[str, object]:
    base = build_benchmark(design)
    return constraint_record(
        proactive_delay_constrain(base, find_locations(base), constraint)
    )


#: Case name -> (checked in tier-1, builder of its record).
Case = Tuple[bool, Callable[[], Dict[str, object]]]


def cases() -> Dict[str, Case]:
    table: Dict[str, Case] = {
        "c17": (True, lambda: timing_record(c17())),
        "c17-full": (True, lambda: timing_record(full_embedding(c17()))),
    }
    for name in SUITE_ORDER:
        tier1 = name in TIER1_DESIGNS
        table[f"bench-{name}"] = (
            tier1, lambda n=name: timing_record(build_benchmark(n))
        )
        table[f"bench-{name}-full"] = (
            tier1, lambda n=name: timing_record(full_embedding(build_benchmark(n)))
        )
    for name in REACTIVE_DESIGNS:
        for constraint in CONSTRAINTS:
            table[f"reactive-{name}-{constraint:g}"] = (
                name == "C432", lambda n=name, c=constraint: _reactive(n, c)
            )
    table["proactive-C432-0.1"] = (True, lambda: _proactive("C432", 0.10))
    return table


def case_outcome(name: str) -> Dict[str, object]:
    _, build = cases()[name]
    return build()


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    records = {}
    for name, (tier1, _) in cases().items():
        records[name] = {"tier1": tier1, "record": case_outcome(name)}
        print(name, flush=True)
    pin = {"schema": 1, "cases": records}
    with open(out, "w") as handle:
        json.dump(pin, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
