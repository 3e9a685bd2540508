"""Record the SAT verdict pin: the baseline verdict of every differential pair.

``tests/test_sat_speed_differential.py`` checks the production SAT
engine against a baseline leg on a fixed set of circuit pairs.  This
script builds those pairs and writes the baseline leg's verdict for
each to ``tests/golden/sat_verdict_pin.json``,
next to a digest of both circuits, so the test knows the pair it checks
is the pair that was recorded.  The pin is an independent reference:
the test checks each verdict against it and, for pairs of at most
``MAX_EXHAUSTIVE_INPUTS`` inputs, against exhaustive simulation.

A case is one base circuit and the circuits compared with it, checked
by one engine:

* ``scratch``: each (base, other) pair on its own.  The production leg
  is :func:`repro.sat.check` (a one-copy CEC session); the baseline leg
  is the raw reference miter (:func:`tests.miter_reference.miter_check`:
  :func:`repro.sat.cec.build_miter` and one solve), which shares only
  the Tseitin encoder and the solver with a session;
* ``session``: one :class:`~repro.sat.incremental.IncrementalCecSession`
  over the base, verifying the others in order.  A session case has one
  leg, its own baseline.

The cases: c17 (a fingerprint copy, six mutants, a session over a copy
and three mutants), random circuits (four copies, three pairs of
mutants, a session over a copy and two mutants) in tier-1; the bundled
small suite (a copy and a mutant each) and a k2 session (a copy and two
mutants) under ``-m differential``.

The committed pin was recorded from raw miters and unsimplified
sessions before version 6.0.0, when the baseline leg also ran the
legacy solver configuration (no learned-clause minimization,
clause-index watch lists), which has since been deleted.
Regenerate it only when the case table changes.  From the repository
root::

    PYTHONPATH=src python -m tests.golden.make_sat_verdict_pin
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench import RandomLogicSpec, generate
from repro.bench.suite import SMALL_SUITE, build_benchmark
from repro.faultinject import GateKindSwap, StuckAtNet
from repro.fingerprint import embed, find_locations, full_assignment
from repro.hashing import circuit_digest
from repro.netlist.circuit import Circuit
from repro.sat import IncrementalCecSession, check
from repro.sat.cec import CecResult
from tests.golden.make_catalog_pin import c17
from tests.miter_reference import miter_check

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sat_verdict_pin.json")


def small_circuit(seed, n_gates=80, n_inputs=12, n_outputs=4):
    return generate(
        RandomLogicSpec(
            name=f"satdiff{seed}",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_gates=n_gates,
            seed=seed,
        )
    )


def fingerprint_copy(base):
    catalog = find_locations(base)
    return embed(base, catalog, full_assignment(base, catalog)).circuit


def mutated_variants(base, n_variants, seed):
    rng = random.Random(seed)
    mutators = [GateKindSwap(), StuckAtNet()]
    variants = []
    for index in range(n_variants):
        mutant = base.clone(f"{base.name}_m{index}")
        try:
            rng.choice(mutators).apply(mutant, rng)
            mutant.validate()
        except Exception:
            continue
        variants.append(mutant)
    return variants


#: Case name -> (checked in tier-1, engine, builder of (base, others)).
Case = Tuple[bool, str, Callable[[], Tuple[Circuit, List[Circuit]]]]


def _pairs(
    base: Circuit, n_mutants: int, seed: int, copy: bool = True
) -> Tuple[Circuit, List[Circuit]]:
    """``base`` with its full-embedding copy (unless ``copy`` is False),
    then ``n_mutants`` mutants drawn with ``seed``."""
    others = [fingerprint_copy(base)] if copy else []
    return base, others + mutated_variants(base, n_mutants, seed)


def cases() -> Dict[str, Case]:
    table: Dict[str, Case] = {
        "c17-copy": (True, "scratch", lambda: _pairs(c17(), 0, 0)),
        "c17-mutants": (True, "scratch", lambda: _pairs(c17(), 6, 3, copy=False)),
        "c17-session": (True, "session", lambda: _pairs(c17(), 3, 4)),
    }
    for seed in range(4):
        table[f"random-copy-{seed}"] = (
            True, "scratch", lambda s=seed: _pairs(small_circuit(s), 0, 0)
        )
    for seed in range(3):
        table[f"random-mutants-{seed}"] = (
            True,
            "scratch",
            lambda s=seed: _pairs(small_circuit(s + 50), 2, s, copy=False),
        )
    table["random-session"] = (
        True,
        "session",
        lambda: _pairs(small_circuit(9, n_gates=120, n_inputs=14), 2, 9),
    )
    for name in SMALL_SUITE:
        table[f"{name}-scratch"] = (
            False, "scratch", lambda n=name: _pairs(build_benchmark(n), 1, 1)
        )
    table["k2-session"] = (
        False, "session", lambda: _pairs(build_benchmark("k2"), 2, 2)
    )
    return table


def build_case(name: str) -> Tuple[str, Circuit, List[Circuit]]:
    """``(engine, base, others)`` of one case."""
    _, engine, build = cases()[name]
    base, others = build()
    return engine, base, others


def digest(circuit: Circuit) -> str:
    return circuit_digest(circuit)[:16]


def results(
    engine: str, base: Circuit, others: Sequence[Circuit], reference: bool
) -> List[CecResult]:
    """One leg's result for each (base, other) pair: ``check``, or with
    ``reference`` the raw reference miter.  A session has one leg, so
    ``reference`` selects nothing for it."""
    if engine == "scratch":
        decide = miter_check if reference else check
        return [decide(base, other) for other in others]
    session = IncrementalCecSession(base)
    return [session.verify(other) for other in others]


def case_record(name: str) -> Dict[str, object]:
    engine, base, others = build_case(name)
    baseline = results(engine, base, others, reference=True)
    return {
        "engine": engine,
        "base": digest(base),
        "pairs": [
            [digest(other), result.verdict.value]
            for other, result in zip(others, baseline)
        ],
    }


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    records = {}
    for name, (tier1, _, _) in cases().items():
        records[name] = dict(case_record(name), tier1=tier1)
        print(name, [verdict for _, verdict in records[name]["pairs"]], flush=True)
    with open(out, "w") as handle:
        json.dump({"schema": 1, "cases": records}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
