"""The session's cone-bounded sweep solves against exhaustive simulation.

A sweep solve (``CdclSolver.solve(inputs=...)``) branches only on the
primary inputs in the fanin cones of a copy point and its base twin, and
answers SAT as soon as those are assigned without conflict.  On circuits
narrow enough to enumerate (at most ``MAX_EXHAUSTIVE_INPUTS`` inputs),
fingerprinted copies and mutants of them must show that this never
misleads the sweep: every point it merges equals its twin under
exhaustive simulation, every point it refutes differs from it, and every
verdict equals :func:`exhaustive_equivalent`.  16 inputs are 65,536
patterns, so the session's 2,048 signature vectors leave false candidates
for the refuting solves to find.  Tier-1 checks three circuits and a
copy whose point reads fewer inputs than its twin; ``-m differential``
checks the catalog pin's population seeds at the same width.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.bench import RandomLogicSpec, generate
from repro.faultinject.mutators import functional_mutators
from repro.fingerprint import FingerprintCodec, embed, find_locations
from repro.netlist import Circuit
from repro.sat import incremental
from repro.sat.cec import CecVerdict
from repro.sim.equivalence import exhaustive_equivalent
from repro.sim.simulator import Simulator
from repro.sim.vectors import MAX_EXHAUSTIVE_INPUTS, exhaustive_stimulus
from tests.golden.make_catalog_pin import POPULATION_SEEDS
from tests.test_sat_incremental import rare_difference

N_INPUTS = 16
assert N_INPUTS <= MAX_EXHAUSTIVE_INPUTS


def wide_circuit(seed: int, n_gates: int = 150) -> Circuit:
    return generate(
        RandomLogicSpec(
            name=f"cone{seed}", n_inputs=N_INPUTS, n_outputs=6, n_gates=n_gates, seed=seed
        )
    )


def copies_of(base: Circuit, seed: int) -> List[Circuit]:
    """Two fingerprinted copies, two functional mutants of the first and a
    copy whose output driver differs on one input pattern only."""
    rng = random.Random(seed)
    catalog = find_locations(base)
    codec = FingerprintCodec(catalog)
    copies = [
        embed(base, catalog, codec.encode(rng.randrange(codec.combinations))).circuit
        for _ in range(2)
    ]
    for index in range(2):
        mutant = copies[0].clone(f"{base.name}_mut{index}")
        try:
            rng.choice(functional_mutators()).apply(mutant, rng)
            mutant.validate()
        except Exception:
            continue  # the mutation landed somewhere unusable; skip it
        copies.append(mutant)
    net = copies[0].driver(copies[0].outputs[0]).inputs[0]
    if copies[0].driver(net) is not None:
        copies.append(rare_difference(copies[0], net, width=N_INPUTS))
    return copies


def sweep(session, copy: Circuit) -> Tuple[object, Dict[str, bool]]:
    """Verify ``copy``; returns the result and, per swept point, whether
    the sweep merged it (``False``: a cone-bounded solve refuted it)."""
    activation: Dict[int, List[int]] = {}
    solves: List[Tuple[int, bool]] = []

    class Recording(incremental.CdclSolver):
        def add_clause(self, literals):
            if len(literals) == 2 and literals[0] < 0:
                activation.setdefault(-literals[0], []).append(literals[1])
            return super().add_clause(literals)

        def solve(self, assumptions=(), budget=None, *, inputs=None):
            result = super().solve(assumptions, budget, inputs=inputs)
            if inputs is not None:
                assert not result.unknown
                solves.append((assumptions[0], result.satisfiable))
            return result

    with mock.patch.object(incremental, "CdclSolver", Recording):
        session._load_base()
        result = session.verify(copy)
    net_of = {var: net for net, var in session._base_var.items()}
    merged: Dict[str, bool] = {}
    for act, satisfiable in solves:
        (twin,) = [lit for lit in activation[act] if abs(lit) in net_of]
        name = net_of[abs(twin)]
        merged[name] = merged.get(name, True) and not satisfiable
    return result, merged


def check_sweep(base: Circuit, seed: int) -> Tuple[int, int]:
    """Check every copy of ``base``; returns (points merged, points refuted)."""
    session = incremental.IncrementalCecSession(base)
    stimulus = exhaustive_stimulus(base.inputs)
    base_values = Simulator(base).run(stimulus)
    totals = [0, 0]
    for copy in copies_of(base, seed):
        result, merged = sweep(session, copy)
        oracle = exhaustive_equivalent(base, copy)
        assert result.verdict is not CecVerdict.UNDECIDED
        assert result.equivalent == oracle.equivalent, copy.name
        copy_values = Simulator(copy).run(stimulus, list(merged))
        for name, was_merged in merged.items():
            equal = np.array_equal(base_values[name], copy_values[name])
            assert equal == was_merged, (copy.name, name, was_merged)
            totals[0 if was_merged else 1] += 1
        detail = result.detail
        assert detail["points_merged"] == sum(merged.values())
        assert detail["points_refuted"] == len(merged) - sum(merged.values())
    return totals[0], totals[1]


def test_sweep_merges_and_refutes_exactly():
    merged = refuted = 0
    for seed in (3, 8, 21):
        more_merged, more_refuted = check_sweep(wide_circuit(seed), seed)
        merged += more_merged
        refuted += more_refuted
    # Both kinds of answer must occur, or the check proves nothing.
    assert merged > 0 and refuted > 0


def test_cone_covers_the_twins_inputs():
    """A copy point whose base twin reads an input the point does not:
    the base computes ``net`` as XOR(XOR(pre, extra), extra), the copy as
    BUF(pre).  Propagation cannot evaluate the twin until ``extra`` is
    assigned, so a cone holding only the point's own inputs would call the
    equal pair different."""
    circuit = wide_circuit(8)
    supports = {name: {name} for name in circuit.inputs}
    for gate in circuit.topological_order():
        supports[gate.name] = set().union(*(supports[n] for n in gate.inputs))
    for gate in circuit.topological_order():
        missing = [n for n in circuit.inputs if n not in supports[gate.name]]
        if missing and gate.name not in circuit.outputs:
            net, extra = gate.name, missing[0]
            break
    base = circuit.clone(f"{circuit.name}_wide")
    driver = base.remove_gate(net)
    base.add_gate(f"{net}_pre", driver.kind, driver.inputs, cell=driver.cell)
    base.add_gate(f"{net}_t", "XOR", [f"{net}_pre", extra])
    base.add_gate(net, "XOR", [f"{net}_t", extra])
    base.validate()
    copy = base.clone(f"{circuit.name}_narrow")
    copy.remove_gate(net)
    copy.remove_gate(f"{net}_t")
    copy.add_gate(net, "BUF", [f"{net}_pre"])
    copy.validate()

    result, merged = sweep(incremental.IncrementalCecSession(base), copy)
    assert merged[net] is True
    assert result.equivalent and exhaustive_equivalent(base, copy).equivalent


def test_sweep_counts_its_work():
    """``sweep_inputs`` sums each swept point's cone-input count, and
    ``sweep_propagations`` the propagations of the sweep's solves."""
    base = wide_circuit(8)
    session = incremental.IncrementalCecSession(base)
    copy = copies_of(base, 8)[0]
    result = session.verify(copy)
    detail = result.detail
    assert detail["points_swept"] > 0
    assert 0 < detail["sweep_inputs"] <= N_INPUTS * detail["points_swept"]
    assert 0 < detail["sweep_propagations"] <= result.stats.propagations
    assert session.stats.sweep_inputs == detail["sweep_inputs"]
    assert session.stats.sweep_propagations == detail["sweep_propagations"]


@pytest.mark.differential
@pytest.mark.parametrize("seed", POPULATION_SEEDS)
def test_population_sweep(seed):
    check_sweep(wide_circuit(seed + 1000, n_gates=40 + (seed % 5) * 15), seed)
