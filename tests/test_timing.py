"""Unit tests for static timing analysis and delay models."""

import random

import pytest

from repro import telemetry
from repro.bench import build_benchmark
from repro.bench.suite import SUITE_ORDER
from repro.fingerprint import FingerprintedCircuit, embed, find_locations, full_assignment
from repro.netlist import Circuit, NetlistError
from repro.timing import (
    LIBRARY_DELAY,
    OUTPUT_PAD_LOAD,
    UNIT_DELAY,
    WIRE_DELAY,
    IncrementalTimer,
    LibraryDelay,
    WireDelay,
    analyze,
    critical_delay,
    critical_path_nets,
)
from tests.golden.make_catalog_pin import c17


class TestUnitDelay:
    def test_depth_equals_unit_delay(self, fig1_circuit):
        report = analyze(fig1_circuit, UNIT_DELAY)
        assert report.critical_delay == 2.0
        assert report.arrival["X"] == 1.0
        assert report.arrival["F"] == 2.0

    def test_chain(self, deep_chain):
        report = analyze(deep_chain, UNIT_DELAY)
        assert report.critical_delay == 6.0

    def test_constants_free(self):
        c = Circuit("k")
        c.add_input("a")
        c.add_gate("one", "CONST1", [])
        c.add_gate("f", "AND", ["a", "one"])
        c.add_output("f")
        report = analyze(c, UNIT_DELAY)
        assert report.arrival["one"] == 0.0
        assert report.critical_delay == 1.0


class TestLibraryDelay:
    def test_load_dependent(self, fig1_circuit):
        # X drives one AND2 input; duplicating the load must slow X's driver.
        base = LIBRARY_DELAY.gate_delay(fig1_circuit, fig1_circuit.gate("X"))
        fig1_circuit.add_gate("extra", "AND", ["X", "Y"])
        fig1_circuit.add_output("extra")
        loaded = LIBRARY_DELAY.gate_delay(fig1_circuit, fig1_circuit.gate("X"))
        assert loaded > base

    def test_po_pad_load(self, fig1_circuit):
        f_delay = LIBRARY_DELAY.gate_delay(fig1_circuit, fig1_circuit.gate("F"))
        x_delay = LIBRARY_DELAY.gate_delay(fig1_circuit, fig1_circuit.gate("X"))
        assert f_delay > x_delay  # F carries the output pad load

    def test_repeated_pin_counts_twice(self):
        c = Circuit("rep")
        c.add_inputs(["a", "b"])
        c.add_gate("x", "AND", ["a", "b"])
        c.add_gate("y", "XOR", ["x", "b"])
        c.add_gate("z", "AND", ["x", "y"])
        c.add_output("z")
        single = LibraryDelay().gate_delay(c, c.gate("x"))
        c.replace_gate("y", "XOR", ["x", "x"])
        double = LibraryDelay().gate_delay(c, c.gate("x"))
        # The second pin on y adds exactly one XOR input cap of load.
        extra = c.gate("x").cell.load_delay * c.gate("y").cell.input_cap
        assert double - single == pytest.approx(extra)


class TestWireDelay:
    def test_local_edges_free(self, fig1_circuit):
        wire = WireDelay(per_level=1.0)
        lib = LibraryDelay()
        for gate in fig1_circuit.gates:
            assert wire.gate_delay(fig1_circuit, gate) == pytest.approx(
                lib.gate_delay(fig1_circuit, gate)
            )

    def test_long_edge_charged_to_driver(self, deep_chain):
        wire = WireDelay(per_level=1.0)
        lib = LibraryDelay()
        # Tap n0 (level 1) from a new consumer placed at the chain's end.
        deep_chain.add_gate("tap", "AND", ["n5", "n0"])
        deep_chain.add_output("tap")
        n0 = deep_chain.gate("n0")
        charged = wire.gate_delay(deep_chain, n0)
        baseline = lib.gate_delay(deep_chain, n0)
        # n0 at level 1, tap at level 7 -> span 5.
        assert charged == pytest.approx(baseline + 5.0)

    def test_repeated_pin_charged_once(self, deep_chain):
        wire = WireDelay(per_level=1.0)
        lib = LibraryDelay()
        # AND(n0, n0) at the chain's end reads n0 on two pins.
        deep_chain.add_gate("tap", "AND", ["n0", "n0", "n5"])
        deep_chain.add_output("tap")
        n0 = deep_chain.gate("n0")
        # n0 at level 1, tap at level 7 -> one span of 5, not two.
        assert wire.gate_delay(deep_chain, n0) == pytest.approx(
            lib.gate_delay(deep_chain, n0) + 5.0
        )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            WireDelay(per_level=-1)


class TestReports:
    def test_zero_slack_convention(self, fig1_circuit):
        report = analyze(fig1_circuit, UNIT_DELAY)
        assert report.worst_slack() == pytest.approx(0.0)
        # X and Y both feed F; X path is critical-length, Y too.
        assert report.slack("F") == pytest.approx(0.0)

    def test_slack_positive_off_critical(self, deep_chain):
        report = analyze(deep_chain, UNIT_DELAY)
        # side input s2 joins late: plenty of slack at its entry gate? s2 is
        # a PI consumed at depth 5 -> slack = required - 0.
        assert report.slack("s2") > 0

    def test_critical_path_is_connected(self, deep_chain):
        path = critical_path_nets(deep_chain, UNIT_DELAY)
        assert path[0] in deep_chain.inputs
        assert path[-1] == "n5"
        for upstream, downstream in zip(path, path[1:]):
            gate = deep_chain.driver(downstream)
            assert upstream in gate.inputs

    def test_empty_circuit(self):
        c = Circuit("empty")
        c.add_input("a")
        c.add_output("a")
        assert critical_delay(c, UNIT_DELAY) == 0.0

    def test_slacks_cover_all_nets(self, fig1_circuit):
        report = analyze(fig1_circuit, UNIT_DELAY)
        assert set(report.slacks()) == {"A", "B", "C", "D", "X", "Y", "F"}

    def test_default_model_is_wire_aware(self, fig1_circuit):
        default = analyze(fig1_circuit).critical_delay
        explicit = analyze(fig1_circuit, WireDelay()).critical_delay
        assert default == pytest.approx(explicit)


def reference_library_delay(circuit, gate):
    """Per-gate library delay, walking the consumers of ``gate``."""
    load = 0.0
    # fanouts() lists a consumer once per pin that reads the net.
    for consumer_name in circuit.fanouts(gate.name):
        load += circuit.gate(consumer_name).cell.input_cap
    if circuit.is_output(gate.name):
        load += OUTPUT_PAD_LOAD
    return gate.cell.intrinsic_delay + gate.cell.load_delay * load


def reference_wire_delay(per_level):
    def delay(circuit, gate):
        base = reference_library_delay(circuit, gate)
        if per_level == 0:
            return base
        levels = circuit.levels()
        my_level = levels.get(gate.name, 0)
        total_span = 0
        # A consumer reading the net on several pins adds one span.
        for consumer in dict.fromkeys(circuit.fanouts(gate.name)):
            span = levels.get(consumer, 0) - my_level - 1
            if span > 0:
                total_span += span
        return base + per_level * total_span

    return delay


def reference_unit_delay(circuit, gate):
    return 0.0 if gate.kind in ("CONST0", "CONST1") else 1.0


def random_edits(fp, seed, edits=40):
    """Seeded random ``apply``/``remove`` edits of ``fp``; yields after each."""
    targets = sorted(slot.target for slot in fp.catalog.slots())
    rng = random.Random(seed)
    for _ in range(edits):
        target = rng.choice(targets)
        if target in fp.applied and rng.random() < 0.5:
            fp.remove(target)
        else:
            fp.apply(target, rng.randint(1, len(fp.slot(target).variants)))
        yield


#: (model, per-gate reference) pairs the replay compares.
MODEL_REFERENCES = [
    (WIRE_DELAY, reference_wire_delay(WIRE_DELAY.per_level)),
    (LIBRARY_DELAY, reference_library_delay),
    (UNIT_DELAY, reference_unit_delay),
    (WireDelay(per_level=0.7), reference_wire_delay(0.7)),
]


class TestDelaysFollowEdits:
    """Delay models must see every edit of the circuit they time."""

    @pytest.mark.parametrize("design,seed", [("C432", 0), ("C432", 1), ("C499", 2)])
    def test_random_apply_remove_replay(self, design, seed):
        base = build_benchmark(design)
        fp = FingerprintedCircuit(base, find_locations(base))
        for _ in random_edits(fp, seed):
            circuit = fp.circuit
            for model, reference in MODEL_REFERENCES:
                for gate in circuit.gates:
                    assert model.gate_delay(circuit, gate) == reference(circuit, gate), (
                        gate.name
                    )


def assert_matches_full_pass(timer, circuit):
    """Every value the timer holds equals a full pass, bit for bit."""
    report = analyze(circuit)
    assert timer.arrival == report.arrival
    assert timer.gate_delays == report.gate_delays
    assert timer.critical_delay() == critical_delay(circuit)
    assert timer.critical_path() == critical_path_nets(circuit)


def counters():
    return dict(telemetry.get_registry().counters)


#: Designs whose timer replay tier-1 runs; the rest of the suite runs
#: under ``-m differential``.
TIMER_TIER1 = ("c17", "C432", "C880")


class TestIncrementalTimer:
    """The timer must equal a full pass of every version it is asked about."""

    @staticmethod
    def replay(design, seed):
        base = c17() if design == "c17" else build_benchmark(design)
        catalog = find_locations(base)
        fp = embed(base, catalog, full_assignment(base, catalog))
        with telemetry.enabled(trace=False, metrics=True):
            before = counters()
            timer = IncrementalTimer(fp.circuit)
            # Pruning trials (remove, then restore) on the full embedding
            # the loop starts from, interleaved with the random edits.
            for _ in random_edits(fp, seed):
                assert_matches_full_pass(timer, fp.circuit)
                if fp.applied:
                    target, variant = sorted(fp.applied.items())[0]
                    fp.remove(target)
                    assert_matches_full_pass(timer, fp.circuit)
                    fp.apply(target, variant)
                    assert_matches_full_pass(timer, fp.circuit)
            after = counters()
        assert after["timing.updates"] > before.get("timing.updates", 0)

    @pytest.mark.parametrize("design", TIMER_TIER1)
    def test_replay_matches_full_pass(self, design):
        self.replay(design, 0)

    @pytest.mark.differential
    @pytest.mark.parametrize(
        "design", [name for name in SUITE_ORDER if name not in TIMER_TIER1]
    )
    def test_differential_replay_matches_full_pass(self, design):
        self.replay(design, 0)

    @pytest.mark.parametrize("reader,source", [("X", "Y"), ("Y", "X")])
    def test_edge_outside_the_build_order(self, fig1_circuit, reader, source):
        # X and Y are independent when the timer is built, so one of the
        # two new edges runs backward in its order and forces a full pass.
        timer = IncrementalTimer(fig1_circuit)
        gate = fig1_circuit.gate(reader)
        fig1_circuit.replace_gate(reader, gate.kind, gate.inputs + (source,))
        assert_matches_full_pass(timer, fig1_circuit)
        fig1_circuit.add_gate("late", "AND", ["F", "A"])
        assert_matches_full_pass(timer, fig1_circuit)
        fig1_circuit.add_output("late")
        assert_matches_full_pass(timer, fig1_circuit)

    @pytest.mark.parametrize("rewire", [False, True])
    def test_removed_gate_still_read_raises_like_a_full_pass(self, fig1_circuit, rewire):
        fig1_circuit.add_gate("G", "INV", ["X"])
        timer = IncrementalTimer(fig1_circuit)
        if rewire:
            # F stops reading X, so only the unedited G still does.
            fig1_circuit.replace_gate("F", "AND", ["Y", "A"])
        fig1_circuit.remove_gate("X")
        with pytest.raises(NetlistError):
            critical_delay(fig1_circuit)
        with pytest.raises(NetlistError):
            timer.critical_delay()

    def test_circuit_without_outputs(self, deep_chain):
        circuit = Circuit("open")
        circuit.add_inputs(deep_chain.inputs)
        for gate in deep_chain.topological_order():
            circuit.add_gate(gate.name, gate.kind, gate.inputs)
        timer = IncrementalTimer(circuit)
        circuit.replace_gate("n3", "OR", ["n2", "s0"])
        assert_matches_full_pass(timer, circuit)
