"""The session's cone-bounded sweep solves against exhaustive simulation.

A sweep solve (``CdclSolver.solve(inputs=..., cone=...)``) branches only
on the primary inputs in the fanin cones of a copy point and its base
twin, assigns no variable outside those cones, and answers SAT as soon
as the inputs are assigned without conflict.  On circuits narrow enough
to enumerate (at most ``MAX_EXHAUSTIVE_INPUTS`` inputs), fingerprinted
copies and mutants of them must show that this never misleads the
sweep: every point it merges equals its twin under exhaustive
simulation, every point it refutes differs from it (on the refuting
model's inputs, too), and every verdict equals
:func:`exhaustive_equivalent`.  16 inputs are 65,536
patterns, so the session's 2,048 signature vectors leave false candidates
for the refuting solves to find.  Tier-1 checks three circuits, a copy
whose point reads fewer inputs than its twin and a point whose cone
needs Tseitin auxiliaries; ``-m differential`` checks the catalog pin's
population seeds at the same width.
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


class Recording(incremental.CdclSolver):
    """A solver that records the assumptions and answers of its
    cone-bounded solves, in a list it owns: the session's template is one
    of these, and each copy of it starts a fresh list."""

    def copy(self):
        solver = super().copy()
        solver.solves = []  # (assumptions, model or None if UNSAT) per solve
        return solver

    def solve(self, assumptions=(), budget=None, *, inputs=None, cone=None):
        result = super().solve(assumptions, budget, inputs=inputs, cone=cone)
        if inputs is not None:
            assert not result.unknown
            self.solves.append((list(assumptions), result.model))
        return result


def sweep(session, copy: Circuit) -> Tuple[object, Dict[str, bool]]:
    """Verify ``copy``; returns the result and, per swept point, whether
    the sweep merged it (``False``: a cone-bounded solve refuted it).

    The copy is verified on a recording copy of the session's template,
    which the first call builds as a :class:`Recording`.  Every refuting
    model must be a real counterexample: on its inputs the point and its
    base twin differ."""
    with mock.patch.object(incremental, "CdclSolver", Recording):
        session._restore_base()
    solver = session.solver
    assert type(solver) is Recording and not solver.solves
    result = session.verify(copy)
    assert session.solver is solver
    base = session.base
    net_of = {var: net for net, var in session._base_var.items()}
    merged: Dict[str, bool] = {}
    for assumptions, model in solver.solves:
        (twin,) = [lit for lit in assumptions if abs(lit) in net_of]
        name = net_of[abs(twin)]
        merged[name] = merged.get(name, True) and model is None
        if model is not None:
            vector = {net: int(model.get(session._base_var[net], False)) for net in base.inputs}
            assert Simulator(base).run_single(vector)[name] != \
                Simulator(copy).run_single(vector)[name], (copy.name, name)
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


def xor_circuits() -> Tuple[Circuit, Circuit, Circuit]:
    """A base whose point ``g = AND(x, y)`` reads ``x = XOR(a, b, c)`` and
    ``y = XNOR(d, e)``, both Tseitin-encoded through auxiliaries; a copy
    that re-derives ``g`` as ``NOR(XNOR(a, b, c), XOR(d, e))``, whose
    3-input XNOR has auxiliaries of its own; and a mutant of the copy
    whose XNOR reads ``XOR(c, rare)`` for ``c``, ``rare`` the AND of 16
    more inputs, so it differs from the base only through the XORs and
    only when all 16 are 1 (the signatures miss that)."""
    base = Circuit("xors")
    base.add_inputs(["a", "b", "c", "d", "e"])
    rare = base.add_input("r0")
    for index in range(1, 16):
        base.add_input(f"r{index}")
        rare = base.add_gate(f"rare{index}", "AND", [rare, f"r{index}"]).name
    base.add_gate("x", "XOR", ["a", "b", "c"])
    base.add_gate("y", "XNOR", ["d", "e"])
    base.add_gate("g", "AND", ["x", "y"])
    base.add_outputs(["g", rare])
    base.validate()
    circuits = []
    for mutated in (False, True):
        copy = base.clone(f"xors_copy{int(mutated)}")
        copy.remove_gate("g")
        if mutated:
            copy.add_gate("c_rare", "XOR", ["c", rare])
        copy.add_gate("nx", "XNOR", ["a", "b", "c_rare" if mutated else "c"])
        copy.add_gate("ny", "XOR", ["d", "e"])
        copy.add_gate("g", "NOR", ["nx", "ny"])
        copy.validate()
        circuits.append(copy)
    return base, circuits[0], circuits[1]


def test_sweep_cone_holds_the_xor_auxiliaries():
    """Propagation from the inputs evaluates a 3-input XOR or an XNOR only
    through its auxiliaries, so a cone without them would refute the
    equal pair.  The point is merged, and the mutant's is refuted by a
    real counterexample."""
    base, copy, mutant = xor_circuits()
    session = incremental.IncrementalCecSession(base)
    stimulus = session._stimulus
    assert (Simulator(mutant).run(stimulus, ["g"])["g"] == session._base_rows["g"]).all()

    result, merged = sweep(session, copy)
    assert merged == {"g": True}
    assert result.equivalent and result.detail["outputs_sat"] == 0

    result, merged = sweep(session, mutant)
    assert merged == {"g": False}
    assert result.verdict is CecVerdict.NOT_EQUIVALENT
    assert not exhaustive_equivalent(base, mutant).equivalent
    left = Simulator(base).run_single(result.counterexample)
    right = Simulator(mutant).run_single(result.counterexample)
    assert left["g"] != right["g"]


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
