"""Differential harness: the ODC engine against exhaustive simulation.

The engine's verdicts are exact, so they must agree with an oracle that
shares no code with it: exhaustive simulation through
:mod:`repro.sim.observability`, which re-simulates the flip's fanout
cone on every input vector.  A candidate ``(net, condition, value)`` is
unobservable exactly when no vector both satisfies the condition and
lets the flip change a primary output.  On circuits small enough to
enumerate (``MAX_EXHAUSTIVE_INPUTS``) the suite checks:

* location catalogs — the catalog the finder builds with the engine
  equals the one it builds with the oracle in the engine's place — on
  c17, small random circuits and their mutants (tier-1), and on the
  bundled designs within the limit and a 210-circuit random/mutated
  population (``-m differential``);
* per-candidate verdicts on seeded ``(net, condition, value)`` triples:
  the same status, every REFUTED witness re-checked by direct
  simulation, and zero UNKNOWN verdicts.

Catalogs of the larger designs are pinned by ``tests/test_catalog_pin.py``.
On a catalog divergence the failing circuit is shrunk by greedy gate
removal to a minimal witness and printed as BLIF, so the counterexample
can be replayed directly.
"""

from dataclasses import dataclass
from typing import Dict, Optional
from unittest import mock

import numpy as np
import pytest

from repro.bench.suite import build_benchmark
from repro.fingerprint import find_locations, locations
from repro.ir import compile_circuit
from repro.netlist import write_blif
from repro.netlist.circuit import Circuit, NetlistError
from repro.odcwin import (
    OdcStatus,
    WindowConfig,
    WindowedOdcEngine,
    extract_window,
    verify_witness,
)
from repro.sim import Simulator
from repro.sim.observability import observability_words
from repro.sim.vectors import MAX_EXHAUSTIVE_INPUTS, exhaustive_stimulus, vector_of
from tests.golden.make_catalog_pin import (
    POPULATION_MUTANT_SEEDS,
    POPULATION_SEEDS,
    c17,
    catalog_record,
    mutated_variants,
    sample_triples,
    small_circuit,
)

#: Bundled designs with few enough inputs for the exhaustive oracle.
EXHAUSTIVE_DESIGNS = ("C880", "C1355", "C1908", "t481", "vda")


@dataclass(frozen=True)
class OracleVerdict:
    confirmed: bool
    witness: Optional[Dict[str, int]]


class ExhaustiveOracle:
    """Exact flip observability by simulating every input vector.

    Has the engine's ``classify`` signature, so the location finder can
    run with it in the engine's place.
    """

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


def catalogs(circuit):
    """(engine catalog, oracle catalog) of one circuit, every field."""
    engine = catalog_record(find_locations(circuit))
    with mock.patch.object(locations, "WindowedOdcEngine", ExhaustiveOracle):
        oracle = catalog_record(find_locations(circuit))
    return engine, oracle


def _still_diverges(circuit):
    try:
        circuit.validate()
        engine, oracle = catalogs(circuit)
    except Exception:
        return False  # shrink step broke the circuit; reject it
    return engine != oracle


def minimize_divergence(circuit):
    """Greedy gate-removal shrink of a catalog-divergence witness.

    Repeatedly tries to delete one gate (rewiring is not attempted — a
    deletion that breaks validity is simply rejected) while the engine
    and the oracle still disagree; returns the smallest circuit found.
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
            if _still_diverges(trial):
                current = trial
                shrunk = True
                break
    return current


def assert_identical_catalogs(circuit, seed_note=""):
    """The differential oracle: engine and exhaustive catalogs must match."""
    engine, oracle = catalogs(circuit)
    if engine != oracle:
        witness = minimize_divergence(circuit)
        pytest.fail(
            f"engine/oracle catalog divergence on {circuit.name} {seed_note}\n"
            f"engine: {engine}\noracle: {oracle}\n"
            f"minimized witness circuit ({witness.n_gates} gates):\n"
            f"{write_blif(witness)}"
        )


def assert_identical_verdicts(circuit, n_samples=40, seed=0):
    """Per-candidate differential: same statuses, validated witnesses."""
    engine = WindowedOdcEngine(circuit)
    oracle = ExhaustiveOracle(circuit)
    for net, cond, value in sample_triples(circuit, n_samples, seed):
        verdict = engine.classify(net, cond, value)
        expected = oracle.classify(net, cond, value)
        assert verdict.status is not OdcStatus.UNKNOWN, (circuit.name, net, cond, value)
        assert verdict.confirmed == expected.confirmed, (
            f"verdict divergence on {circuit.name}: net={net} cond={cond}=={value} "
            f"engine={verdict.status}/{verdict.method} oracle witness={expected.witness}"
        )
        if verdict.refuted:
            assert verify_witness(circuit, verdict), (circuit.name, net, cond, value)
    assert engine.stats.unknown == 0


class TestBundledC17:
    @pytest.fixture(scope="class")
    def circuit(self):
        return c17()

    def test_catalogs_identical(self, circuit):
        assert_identical_catalogs(circuit)

    def test_verdicts_identical(self, circuit):
        assert_identical_verdicts(circuit, n_samples=60)

    def test_mutated_variants(self, circuit):
        for mutant in mutated_variants(circuit, 6, seed=5):
            assert_identical_catalogs(mutant, "(c17 mutant)")


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(8))
    def test_catalogs_identical(self, seed):
        assert_identical_catalogs(small_circuit(seed), f"(seed {seed})")

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_identical(self, seed):
        assert_identical_verdicts(small_circuit(seed + 100), seed=seed)

    def test_mutated_variants(self):
        base = small_circuit(7)
        for mutant in mutated_variants(base, 4, seed=7):
            assert_identical_catalogs(mutant, "(random mutant)")


def _circuit(gates, outputs, inputs="abc"):
    circuit = Circuit("t")
    circuit.add_inputs(list(inputs))
    for name, kind, fanins in gates:
        circuit.add_gate(name, kind, list(fanins))
    for net in outputs:
        circuit.add_output(net)
    circuit.validate()
    return circuit


class TestEngineTiers:
    """Which tier decides: the claims ``docs/ARCHITECTURE.md`` makes."""

    def test_location_candidates_never_reach_the_miter(self):
        for circuit in [c17()] + [small_circuit(seed) for seed in range(8)]:
            engine = WindowedOdcEngine(circuit)
            with mock.patch.object(locations, "WindowedOdcEngine", lambda c: engine):
                find_locations(circuit)
            assert engine.stats.const_confirmed == engine.stats.candidates
            assert engine.stats.miter_sat_calls == 0

    def test_difference_dying_at_the_controlling_value(self):
        # x = a & b feeds only p = x & c: with c == 0 the flip of x dies at p.
        circuit = _circuit([("x", "AND", "ab"), ("p", "AND", "xc")], ["p"])
        engine = WindowedOdcEngine(circuit)
        assert engine.classify("x", "c", 0).method == "constprop"
        verdict = engine.classify("x", "c", 1)
        assert verdict.refuted and verdict.method == "miter-sat"
        assert verify_witness(circuit, verdict)

    def test_difference_dies_deeper_in_the_cone(self):
        # The flip of x passes i and j, then dies where k reads c == 0.
        circuit = _circuit(
            [("x", "AND", "ab"), ("i", "INV", "x"), ("j", "BUF", "i"),
             ("k", "AND", "jc"), ("o", "OR", "kd")],
            ["o"], inputs="abcd",
        )
        engine = WindowedOdcEngine(circuit)
        assert engine.classify("x", "c", 0).method == "constprop"
        assert engine.classify("x", "c", 1).refuted

    def test_untracked_constant_is_left_to_the_miter(self):
        # With c == 0, k is 0 and blocks o, but the walk keeps no value
        # for nets without a difference, so the miter confirms.
        circuit = _circuit(
            [("k", "AND", "xc"), ("p", "OR", "xd"), ("o", "AND", "kp")],
            ["o"], inputs="xcd",
        )
        verdict = WindowedOdcEngine(circuit).classify("x", "c", 0)
        assert verdict.confirmed and verdict.method == "miter-sat"

    def test_condition_carrying_a_difference_is_not_injected(self):
        # y differs with the flip of x, so its condition value is not
        # read as a constant; the miter decides exactly instead.
        circuit = _circuit(
            [("x", "INV", "a"), ("y", "BUF", "x"), ("o", "AND", "xy")], ["o"]
        )
        verdict = WindowedOdcEngine(circuit).classify("x", "y", 0)
        assert verdict.refuted and verdict.method == "miter-sat"
        assert verify_witness(circuit, verdict)

    def test_dead_logic_confirmed_without_the_miter(self):
        circuit = _circuit([("d", "AND", "ab"), ("e", "INV", "d"), ("o", "OR", "bc")], ["o"])
        engine = WindowedOdcEngine(circuit)
        assert engine.classify("d").method == "constprop"
        assert engine.stats.miter_sat_calls == 0

    def test_primary_output_seed_decided_by_the_condition(self):
        circuit = _circuit(
            [("k", "CONST0", ""), ("o", "OR", "ab")], ["o", "k"]
        )
        engine = WindowedOdcEngine(circuit)
        assert engine.classify("o", "c", 1).refuted
        unsatisfiable = engine.classify("o", "k", 1)
        assert unsatisfiable.confirmed and unsatisfiable.method == "miter-sat"


class TestWindowInvariants:
    """Structural guarantees the resubstitution attack's windows rest on."""

    def test_members_topological_and_fanin_closed(self):
        circuit = small_circuit(3, n_gates=120)
        compiled = compile_circuit(circuit)
        config = WindowConfig(max_levels=3, max_gates=10)
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id, config)
            ids = [int(i) for i in window.gate_ids]
            assert ids == sorted(ids)
            assert len(ids) <= config.max_gates
            members = set(ids)
            # Fanin-closure within the cone: any member's fanin that is
            # itself in the seed's fanout cone must also be a member —
            # otherwise side inputs could carry a difference into the
            # window unseen and a window-local proof would be unsound.
            cone = set(int(g) for g in compiled.fanout_cone(gate.name))
            for gid in ids:
                for fid in compiled.fanin_row(gid):
                    fid = int(fid)
                    if fid in cone and fid != seed_id:
                        assert fid in members, (gate.name, gid, fid)

    def test_boundary_bookkeeping(self):
        circuit = small_circuit(11, n_gates=120)
        compiled = compile_circuit(circuit)
        po_ids = set(int(i) for i in compiled.output_ids)
        config = WindowConfig(max_levels=2, max_gates=6)
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id, config)
            members = set(int(i) for i in window.gate_ids)
            outputs = set(int(i) for i in window.output_ids)
            for gid in members:
                escapes = any(
                    int(f) not in members for f in compiled.fanout_row(gid)
                )
                assert ((gid in po_ids) or escapes) == (gid in outputs)
            assert set(int(i) for i in window.po_ids) == members & po_ids
            assert window.seed_is_po == (seed_id in po_ids)


@pytest.mark.differential
class TestBenchmarkSuite:
    """Bundled designs small enough to enumerate, against the oracle."""

    @pytest.mark.parametrize("name", EXHAUSTIVE_DESIGNS)
    def test_catalogs_identical(self, name):
        assert_identical_catalogs(build_benchmark(name), f"(benchmark {name})")

    @pytest.mark.parametrize("name", EXHAUSTIVE_DESIGNS)
    def test_verdicts_identical(self, name):
        assert_identical_verdicts(build_benchmark(name), n_samples=15, seed=1)


@pytest.mark.differential
class TestRandomPopulation:
    """210 randomized/mutated circuits, zero undischarged unknowns."""

    @pytest.mark.parametrize("seed", POPULATION_SEEDS)
    def test_random_circuit(self, seed):
        circuit = small_circuit(seed + 1000, n_gates=40 + (seed % 5) * 15)
        assert_identical_catalogs(circuit, f"(population seed {seed})")
        assert_identical_verdicts(circuit, n_samples=10, seed=seed)

    @pytest.mark.parametrize("seed", POPULATION_MUTANT_SEEDS)
    def test_mutated_circuit(self, seed):
        base = small_circuit(seed + 5000, n_gates=50)
        for mutant in mutated_variants(base, 1, seed=seed):
            assert_identical_catalogs(mutant, f"(mutant seed {seed})")
            assert_identical_verdicts(mutant, n_samples=10, seed=seed)
