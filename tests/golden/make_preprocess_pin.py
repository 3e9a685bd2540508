"""Record the preprocessor output pin: CNF-level inputs and exact outputs.

Every case is one :func:`repro.sat.preprocess.preprocess` call on a CNF
with its frozen-variable list under a named setting of :data:`CONFIGS`:
the ``eliminate`` switch and the preprocessor's effort bounds, which
:func:`outcome` patches into the module constants for the call.
The pin keeps, per case, the status, a sha256 of the output clause list
in order, a sha256 of the reconstruction stack in order and every integer
:class:`PreprocessStats` counter.  ``tests/test_preprocess_pin.py``
reruns the cases and requires the same outcomes, so a change to the
preprocessor's loops must hand the solver exactly the CNF the recording
preprocessor did, not merely an equisatisfiable one.

The inputs are CNF-level, so the pin does not move when techmap, the
Tseitin encoder or the embedding change:

* ``real``: CNFs stored in full.  The distinct miters ``cec.check``
  preprocesses in one plain pass of the end-to-end benchmark's
  ``table2-flow`` (C432, C499, C880) and ``table3-constrained`` (C432 at
  10 %, 5 % and 1 % delay constraints) workloads, under
  ``FlowOptions(seed=0)`` and ``Budget(max_conflicts=20000)``; the c17
  full-embedding miter; the C432 full-embedding miter against a known-bad
  copy (one output inverted); and the C432 incremental-session base
  encoding without variable elimination.
* ``random``: small seeded CNFs (units, duplicate literals, tautologies,
  refutable and satisfiable inputs, random frozen sets), each run under
  every setting of :data:`CONFIGS`: the default, no variable elimination
  (what the incremental session runs), and each effort bound set low
  enough to bind.  Only a digest of every generated input is stored.
* ``slow``: about 2,000 larger seeded CNFs (50-300 variables), one
  setting each, with one input and one output digest per case
  (``-m slow``).

Regenerate only when a change is *meant* to alter the simplification (see
the raw-speed section of ``docs/ARCHITECTURE.md``), and then run the
parent's preprocessor first to see what moved.  From the repository root::

    PYTHONPATH=src python -m tests.golden.make_preprocess_pin
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import sys
from typing import Dict, List, Sequence, Tuple
from unittest import mock

from repro.sat.cnf import Cnf
from repro.sat.preprocess import preprocess

# The module, not the function ``repro.sat`` re-exports under its name.
_PREPROCESS = importlib.import_module("repro.sat.preprocess")

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "preprocess_pin.json")

#: Integer :class:`PreprocessStats` counters compared exactly.
STATS = (
    "eliminated_vars",
    "subsumed_clauses",
    "strengthened_literals",
    "failed_literals",
    "probes",
    "rounds",
    "units_found",
    "clauses_in",
    "clauses_out",
    "vars_in",
)

#: The preprocessor's effort bounds, by the names of their module constants.
BOUNDS = ("MAX_ROUNDS", "RESOLVENT_MAX", "PROBE_LIMIT", "OCC_LIMIT")

#: The preprocessor as ``cec.check`` runs it: variable elimination on, every
#: effort bound at its fixed value.
DEFAULT: Dict[str, object] = {
    "eliminate": True,
    **{name: getattr(_PREPROCESS, name) for name in BOUNDS},
}


def _setting(**changes: object) -> Dict[str, object]:
    return {**DEFAULT, **changes}


#: Named settings of the random populations: the default, no variable
#: elimination, and each effort bound set low.
CONFIGS: Dict[str, Dict[str, object]] = {
    "default": DEFAULT,
    "incremental-safe": _setting(eliminate=False),
    "probe-limit-1": _setting(PROBE_LIMIT=1),
    "probe-limit-7": _setting(PROBE_LIMIT=7),
    "probe-limit-60": _setting(PROBE_LIMIT=60),
    "occ-limit-1": _setting(OCC_LIMIT=1),
    "occ-limit-3": _setting(OCC_LIMIT=3),
    "resolvent-max-2": _setting(RESOLVENT_MAX=2),
    "resolvent-max-3": _setting(RESOLVENT_MAX=3),
    "rounds-1": _setting(MAX_ROUNDS=1),
    "rounds-2": _setting(MAX_ROUNDS=2),
}

#: Settings that lower an effort bound; each must change some random output.
BOUND_CONFIGS = tuple(name for name in CONFIGS if name not in ("default", "incremental-safe"))

#: Seeds and size ranges (variables) of the two random populations.
RANDOM_SEEDS = range(60)
RANDOM_VARS = (3, 36)
SLOW_SEEDS = range(100_000, 102_000)
SLOW_VARS = (50, 300)


def _sha(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def outcome(cnf: Cnf, frozen: Sequence[int], setting: Dict[str, object]) -> Dict[str, object]:
    """What the pin records about one :func:`preprocess` call under ``setting``."""
    with mock.patch.multiple(_PREPROCESS, **{name: setting[name] for name in BOUNDS}):
        result = preprocess(cnf, frozen=frozen, eliminate=setting["eliminate"])
    stack = [[var, [list(c) for c in clauses]]
             for var, clauses in result.reconstruction._stack]
    return {
        "status": result.status,
        "clauses": _sha([list(c) for c in result.cnf.clauses]),
        "reconstruction": _sha(stack),
        "stats": [int(getattr(result.stats, name)) for name in STATS],
    }


def make_cnf(n_vars: int, clauses: Sequence[Sequence[int]]) -> Cnf:
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


# ---------------------------------------------------------------------- #
# seeded random CNFs
# ---------------------------------------------------------------------- #


def random_input(seed: int, size: Tuple[int, int]) -> Tuple[Cnf, List[int]]:
    """A seeded CNF and frozen list: random clauses or gate-like structure.

    Only ``Random.random`` is drawn, whose sequence Python guarantees for
    a given seed, so the populations do not depend on the interpreter.
    """
    rng = random.Random(seed)

    def below(n: int) -> int:
        return int(rng.random() * n)

    def lit(n_vars: int) -> int:
        var = 1 + below(n_vars)
        return var if rng.random() < 0.5 else -var

    n_vars = size[0] + below(size[1] - size[0] + 1)
    clauses: List[List[int]] = []
    if rng.random() < 0.5:
        # Gate-like: AND/OR/XOR definitions over earlier variables, then
        # random constraints, as a Tseitin-encoded circuit with assertions.
        n_inputs = max(2, n_vars // 4)
        for out in range(n_inputs + 1, n_vars + 1):
            a, b = lit(out - 1), lit(out - 1)
            kind = below(3)
            if kind == 0:  # out = a & b
                clauses += [[-out, a], [-out, b], [out, -a, -b]]
            elif kind == 1:  # out = a | b
                clauses += [[out, -a], [out, -b], [-out, a, b]]
            else:  # out = a ^ b
                clauses += [[-out, a, b], [-out, -a, -b], [out, -a, b], [out, a, -b]]
        n_extra = 1 + below(max(2, n_vars // 3))
    else:
        n_extra = int(n_vars * (1.0 + 3.0 * rng.random()))
    binary = 0.2 + 0.6 * rng.random()
    for _ in range(n_extra):
        r = rng.random()
        width = 1 if r < 0.03 else 2 if r < 0.03 + binary else 3 + below(3)
        clause = [lit(n_vars) for _ in range(width)]
        r = rng.random()
        if r < 0.04:
            clause.append(clause[0])  # duplicate literal
        elif r < 0.08:
            clause.append(-clause[0])  # tautology
        clauses.append(clause)
    frozen: List[int] = []
    if rng.random() < 0.6:
        density = 0.5 * rng.random()
        frozen = [v for v in range(1, n_vars + 1) if rng.random() < density]
    return make_cnf(n_vars, clauses), frozen


def input_digest(cnf: Cnf, frozen: Sequence[int]) -> str:
    return _sha([cnf.n_vars, [list(c) for c in cnf.clauses], list(frozen)])[:16]


def slow_config(seed: int) -> str:
    names = sorted(CONFIGS)
    return names[seed % len(names)]


def slow_digest(seed: int) -> Tuple[str, str]:
    """(input digest, output digest) of one slow-population case."""
    cnf, frozen = random_input(seed, SLOW_VARS)
    return input_digest(cnf, frozen), _sha(outcome(cnf, frozen, CONFIGS[slow_config(seed)]))[:16]


# ---------------------------------------------------------------------- #
# real CNFs
# ---------------------------------------------------------------------- #


def benchmark_miters() -> Dict[str, Dict[str, object]]:
    """The distinct miters ``cec.check`` preprocesses in one benchmark pass."""
    from repro import api
    from repro.bench.suite import build_benchmark
    from repro.budget import Budget
    from repro.flows import FlowOptions, LadderConfig
    from repro.netlist import write_blif
    from repro.sat import cec

    captured: List[Tuple[str, Cnf, List[int]]] = []
    label = [""]
    original = cec.preprocess

    def recording(cnf, frozen=(), **kwargs):
        captured.append((label[0], cnf, list(frozen)))
        return original(cnf, frozen=frozen, **kwargs)

    options = FlowOptions(seed=0, ladder=LadderConfig(sat_budget=Budget(max_conflicts=20_000)))
    flows = [("C432", None), ("C499", None), ("C880", None),
             ("C432", 0.10), ("C432", 0.05), ("C432", 0.01)]
    cec.preprocess = recording
    try:
        for design, limit in flows:
            label[0] = design if limit is None else f"{design}@{limit:g}"
            opts = options if limit is None else options.replace(delay_constraint=limit)
            api.fingerprint(write_blif(build_benchmark(design)), opts)
    finally:
        cec.preprocess = original
    miters: Dict[str, Dict[str, object]] = {}
    seen = set()
    for name, cnf, frozen in captured:
        digest = input_digest(cnf, frozen)
        if digest in seen:
            continue
        seen.add(digest)
        miters[f"bench-{name}-miter"] = _real_case(cnf, frozen, "default")
    return miters


def _real_case(cnf: Cnf, frozen: Sequence[int], config: str) -> Dict[str, object]:
    return {
        "n_vars": cnf.n_vars,
        "clauses": [list(c) for c in cnf.clauses],
        "frozen": list(frozen),
        "config": config,
    }


def circuit_cnfs() -> Dict[str, Dict[str, object]]:
    """The c17 and known-bad C432 miters, and the C432 session base."""
    from repro.bench.suite import build_benchmark
    from repro.fingerprint import embed, find_locations, full_assignment
    from repro.sat.cec import build_miter
    from repro.sat.tseitin import encode_circuit
    from tests.golden.make_sat_trajectory import _c17, complement_output

    def miter(base, bad: bool) -> Dict[str, object]:
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog)).circuit
        if bad:
            copy = complement_output(copy, copy.outputs[0])
        encoding = build_miter(base, copy)
        frozen = [encoding.var_of[net] for net in base.inputs]
        return _real_case(encoding.cnf, frozen, "default")

    c432 = build_benchmark("C432")
    return {
        "c17-miter": miter(_c17(), bad=False),
        "C432-bad-miter": miter(c432, bad=True),
        "C432-session-base": _real_case(encode_circuit(c432).cnf, [], "incremental-safe"),
    }


def real_outcome(case: Dict[str, object]) -> Dict[str, object]:
    cnf = make_cnf(case["n_vars"], case["clauses"])
    return outcome(cnf, case["frozen"], CONFIGS[case["config"]])


# ---------------------------------------------------------------------- #
# recording
# ---------------------------------------------------------------------- #


def main(argv: Sequence[str] = ()) -> int:
    out = argv[0] if argv else OUT
    real = benchmark_miters()
    real.update(circuit_cnfs())
    for name, case in real.items():
        case["expect"] = real_outcome(case)
        print(name, case["n_vars"], len(case["clauses"]), case["expect"]["stats"])

    random_cases = []
    for seed in RANDOM_SEEDS:
        cnf, frozen = random_input(seed, RANDOM_VARS)
        random_cases.append({
            "seed": seed,
            "input": input_digest(cnf, frozen),
            "expect": {name: outcome(cnf, frozen, setting) for name, setting in CONFIGS.items()},
        })
    statuses = {o["status"] for case in random_cases for o in case["expect"].values()}
    assert statuses == {False, True, None}, statuses
    for name in BOUND_CONFIGS:
        assert any(case["expect"][name] != case["expect"]["default"]
                   for case in random_cases), f"{name} never binds"

    slow = [[seed, *slow_digest(seed)] for seed in SLOW_SEEDS]
    pin = {
        "schema": 1,
        "stats": list(STATS),
        "configs": CONFIGS,
        "real": real,
        "random": random_cases,
        "slow": slow,
    }
    with open(out, "w") as handle:
        json.dump(pin, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
