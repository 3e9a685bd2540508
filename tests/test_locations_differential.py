"""Differential harness: every admitted location against exhaustive simulation.

Definition 1 makes every fingerprint location unobservable by
construction (see :mod:`repro.fingerprint.locations`): the FFC root
feeds only the primary gate P, and the trigger holds P's controlling
value.  The finder therefore runs no ODC check, and this suite checks
the property with an oracle that shares no code with it: exhaustive
simulation through :mod:`repro.sim.observability`, which re-simulates
the flip's fanout cone on every input vector.  A location's
``(ffc_root, trigger, trigger_value)`` is unobservable exactly when no
vector both holds the trigger at its value and lets a flip of the root
change a primary output.  Every change an embedding makes inside the
FFC leaves it through the root, so that is the whole question.

The check runs on c17, small random circuits and their mutants
(tier-1), and on the bundled designs within the exhaustive limit and a
210-circuit random/mutated population (``-m differential``).  Catalogs
themselves are pinned by ``tests/test_catalog_pin.py``.  When an
admitted location is observable, the failing circuit is shrunk by greedy
gate removal to a minimal witness and printed as BLIF, so the
counterexample can be replayed directly.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import pytest

from repro.bench.suite import build_benchmark
from repro.fingerprint import find_locations
from repro.netlist import write_blif
from repro.netlist.circuit import Circuit, NetlistError
from repro.sim import Simulator
from repro.sim.observability import observability_words
from repro.sim.vectors import MAX_EXHAUSTIVE_INPUTS, exhaustive_stimulus, vector_of
from tests.golden.make_catalog_pin import (
    POPULATION_MUTANT_SEEDS,
    POPULATION_SEEDS,
    c17,
    mutated_variants,
    small_circuit,
)

#: Bundled designs with few enough inputs for the exhaustive oracle.
EXHAUSTIVE_DESIGNS = ("C880", "C1355", "C1908", "t481", "vda")


@dataclass(frozen=True)
class OracleVerdict:
    confirmed: bool
    witness: Optional[Dict[str, int]]


class ExhaustiveOracle:
    """Exact flip observability by simulating every input vector."""

    def __init__(self, circuit: Circuit) -> None:
        assert len(circuit.inputs) <= MAX_EXHAUSTIVE_INPUTS, circuit.name
        self.circuit = circuit
        self.stimulus = exhaustive_stimulus(circuit.inputs)
        self.values = Simulator(circuit).run(self.stimulus)

    def classify(self, net, condition_net=None, condition_value=1) -> OracleVerdict:
        words = observability_words(self.circuit, net, self.values)
        if condition_net is not None:
            held = self.values[condition_net]
            words = words & (held if condition_value else ~held)
        hits = np.nonzero(words)[0]
        if not len(hits):
            return OracleVerdict(True, None)
        word = int(hits[0])
        bits = int(words[word])
        index = 64 * word + (bits & -bits).bit_length() - 1
        return OracleVerdict(False, vector_of(self.stimulus, index))


def observable_locations(circuit):
    """Admitted locations whose root flip the oracle sees, with witnesses."""
    oracle = ExhaustiveOracle(circuit)
    found = []
    for location in find_locations(circuit):
        verdict = oracle.classify(
            location.ffc_root, location.trigger, location.trigger_value
        )
        if not verdict.confirmed:
            found.append((location, verdict.witness))
    return found


def _still_observable(circuit):
    try:
        circuit.validate()
        return bool(observable_locations(circuit))
    except Exception:
        return False  # shrink step broke the circuit; reject it


def minimize_witness(circuit):
    """Greedy gate-removal shrink of a circuit with an observable location.

    Repeatedly tries to delete one gate (rewiring is not attempted — a
    deletion that breaks validity is simply rejected) while some admitted
    location stays observable; returns the smallest circuit found.
    """
    current = circuit
    shrunk = True
    while shrunk:
        shrunk = False
        for gate in sorted(current.gates, key=lambda g: g.name, reverse=True):
            trial = current.clone(current.name)
            try:
                trial.remove_gate(gate.name)
            except (NetlistError, KeyError, ValueError):
                continue
            if _still_observable(trial):
                current = trial
                shrunk = True
                break
    return current


def assert_locations_unobservable(circuit, seed_note=""):
    """The differential oracle: no admitted location may be observable."""
    observable = observable_locations(circuit)
    if observable:
        witness = minimize_witness(circuit)
        described = [
            (loc.primary, loc.ffc_root, loc.trigger, loc.trigger_value, vector)
            for loc, vector in observable
        ]
        pytest.fail(
            f"observable locations on {circuit.name} {seed_note}: {described}\n"
            f"minimized witness circuit ({witness.n_gates} gates):\n"
            f"{write_blif(witness)}"
        )


class TestOracle:
    def test_sees_a_flip_the_trigger_does_not_block(self):
        # x = a & b feeds only p = x & c: with c == 0 the flip of x dies
        # at p; with c == 1 it reaches the output.
        circuit = Circuit("t")
        circuit.add_inputs(["a", "b", "c"])
        circuit.add_gate("x", "AND", ["a", "b"])
        circuit.add_gate("p", "AND", ["x", "c"])
        circuit.add_output("p")
        oracle = ExhaustiveOracle(circuit)
        assert oracle.classify("x", "c", 0).confirmed
        seen = oracle.classify("x", "c", 1)
        assert not seen.confirmed
        assert seen.witness["c"] == 1
        flipped = circuit.clone("flipped")
        flipped.replace_gate("x", "NAND", ["a", "b"])
        assert (Simulator(circuit).run_single(seen.witness)["p"]
                != Simulator(flipped).run_single(seen.witness)["p"])


class TestBundledC17:
    def test_locations_unobservable(self):
        assert_locations_unobservable(c17())

    def test_mutated_variants(self):
        for mutant in mutated_variants(c17(), 6, seed=5):
            assert_locations_unobservable(mutant, "(c17 mutant)")


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(8))
    def test_locations_unobservable(self, seed):
        assert_locations_unobservable(small_circuit(seed), f"(seed {seed})")

    def test_mutated_variants(self):
        base = small_circuit(7)
        for mutant in mutated_variants(base, 4, seed=7):
            assert_locations_unobservable(mutant, "(random mutant)")


@pytest.mark.differential
class TestBenchmarkSuite:
    """Bundled designs small enough to enumerate, against the oracle."""

    @pytest.mark.parametrize("name", EXHAUSTIVE_DESIGNS)
    def test_locations_unobservable(self, name):
        assert_locations_unobservable(build_benchmark(name), f"(benchmark {name})")


@pytest.mark.differential
class TestRandomPopulation:
    """210 randomized/mutated circuits."""

    @pytest.mark.parametrize("seed", POPULATION_SEEDS)
    def test_random_circuit(self, seed):
        circuit = small_circuit(seed + 1000, n_gates=40 + (seed % 5) * 15)
        assert_locations_unobservable(circuit, f"(population seed {seed})")

    @pytest.mark.parametrize("seed", POPULATION_MUTANT_SEEDS)
    def test_mutated_circuit(self, seed):
        base = small_circuit(seed + 5000, n_gates=50)
        for mutant in mutated_variants(base, 1, seed=seed):
            assert_locations_unobservable(mutant, f"(mutant seed {seed})")
