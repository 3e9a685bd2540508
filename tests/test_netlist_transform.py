"""Unit tests for netlist transformations."""

import random

import pytest

from repro.bench import RandomLogicSpec, generate
from repro.netlist import (
    Circuit,
    NetlistError,
    cleanup,
    eliminate_dead_gates,
    prefix_nets,
    propagate_constants,
    rename_nets,
    sweep_buffers,
)
from repro.sim import exhaustive_equivalent


class TestRename:
    def test_rename_ports_and_gates(self, fig1_circuit):
        renamed = rename_nets(fig1_circuit, {"A": "a0", "F": "out"})
        assert renamed.inputs == ["a0", "B", "C", "D"]
        assert renamed.outputs == ["out"]
        assert renamed.gate("out").inputs == ("X", "Y")

    def test_merge_rejected(self, fig1_circuit):
        with pytest.raises(NetlistError):
            rename_nets(fig1_circuit, {"A": "B"})

    def test_prefix_nets(self, fig1_circuit):
        prefixed = prefix_nets(fig1_circuit, "u_")
        assert prefixed.inputs[0] == "u_A"
        assert prefixed.gate("u_F").inputs == ("u_X", "u_Y")


class TestDeadCode:
    def test_dead_gate_removed(self, fig1_circuit):
        fig1_circuit.add_gate("dead", "INV", ["A"])
        assert eliminate_dead_gates(fig1_circuit) == 1
        assert not fig1_circuit.has_net("dead")

    def test_dead_chain_removed(self, fig1_circuit):
        fig1_circuit.add_gate("d1", "INV", ["A"])
        fig1_circuit.add_gate("d2", "INV", ["d1"])
        assert eliminate_dead_gates(fig1_circuit) == 2

    def test_live_logic_kept(self, fig1_circuit):
        assert eliminate_dead_gates(fig1_circuit) == 0
        assert fig1_circuit.n_gates == 3


def _reference_sweep(circuit):
    """The quadratic buffer sweep: the oracle for ``sweep_buffers``' edits.

    It asks the circuit for each buffer's fanouts, which rebuilds the
    whole fanout table after every edit, and so rewires each buffer's
    consumers in their current gate-table order.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in circuit.gate_names():
            gate = circuit.driver(name)
            if gate is None or gate.kind != "BUF" or circuit.is_output(gate.name):
                continue
            source = gate.inputs[0]
            for consumer_name in list(circuit.fanouts(gate.name)):
                consumer = circuit.gate(consumer_name)
                new_inputs = [source if n == gate.name else n for n in consumer.inputs]
                circuit.replace_gate(consumer_name, consumer.kind, new_inputs, cell=consumer.cell)
            circuit.remove_gate(gate.name)
            removed += 1
            changed = True
    return removed


def _buffer_rewired():
    c = Circuit("b")
    c.add_input("a")
    c.add_gate("buf", "BUF", ["a"])
    c.add_gate("n", "INV", ["buf"])
    c.add_output("n")
    return c


def _po_buffer():
    c = Circuit("b")
    c.add_input("a")
    c.add_gate("out", "BUF", ["a"])
    c.add_output("out")
    return c


def _buffer_chain():
    c = Circuit("b")
    c.add_input("a")
    c.add_gate("b1", "BUF", ["a"])
    c.add_gate("b2", "BUF", ["b1"])
    c.add_gate("n", "INV", ["b2"])
    c.add_output("n")
    return c


def _downstream_first():
    """A buffer listed before the buffer it reads (a forward reference)."""
    c = Circuit("b")
    c.add_inputs(["a", "c"])
    c.add_gate("down", "BUF", ["up"])
    c.add_gate("g", "AND", ["down", "c"])
    c.add_gate("h", "OR", ["up", "down"])  # reads both: two pins after one sweep
    c.add_gate("up", "BUF", ["a"])
    c.add_outputs(["g", "h"])
    return c


def _two_pins():
    c = Circuit("b")
    c.add_inputs(["a", "c"])
    c.add_gate("b", "BUF", ["a"])
    c.add_gate("g", "AND", ["b", "b"])
    c.add_gate("h", "OR", ["b", "a", "b"])  # already reads the source too
    c.add_gate("k", "XOR", ["c", "b"])
    c.add_outputs(["g", "h", "k"])
    return c


def _two_buffers():
    c = Circuit("b")
    c.add_inputs(["a", "c"])
    c.add_gate("b1", "BUF", ["a"])
    c.add_gate("b2", "BUF", ["c"])
    c.add_gate("g", "NOR", ["b1", "b2"])
    c.add_gate("h", "NAND", ["b2", "b1"])
    c.add_outputs(["g", "h"])
    return c


def _into_po_buffer():
    c = Circuit("b")
    c.add_inputs(["a", "c"])
    c.add_gate("inner", "BUF", ["a"])
    c.add_gate("po", "BUF", ["inner"])
    c.add_gate("g", "AND", ["inner", "c"])
    c.add_gate("po2", "BUF", ["po"])
    c.add_outputs(["po", "g", "po2"])
    return c


def _constant_buffer():
    c = Circuit("b")
    c.add_input("a")
    c.add_gate("k", "CONST0", [])
    c.add_gate("kb", "BUF", ["k"])
    c.add_gate("g", "OR", ["kb", "a"])
    c.add_output("g")
    return c


def _chain_with_side_fanout(length=50):
    """``length`` buffers in a chain, each also read by a side gate."""
    c = Circuit("chain")
    c.add_inputs(["a", "c"])
    previous = "a"
    for index in range(length):
        c.add_gate(f"b{index}", "BUF", [previous])
        c.add_gate(f"s{index}", "AND", [f"b{index}", "c"])
        c.add_output(f"s{index}")
        previous = f"b{index}"
    c.add_gate("n", "INV", [previous])
    c.add_output("n")
    return c


def _shuffled_buffers(seed):
    """A random circuit with buffers spliced into its pins, gates shuffled.

    Buffers are chained, shared between consumers, read on two pins of
    one gate, and listed before or after the buffers they read.
    """
    rng = random.Random(seed)
    base = generate(RandomLogicSpec(
        name=f"shuffled{seed}", n_inputs=6, n_outputs=3, n_gates=40, seed=seed,
    ))
    gates = []
    shared = {}
    for gate in base.gates:
        inputs = []
        for net in gate.inputs:
            if net in shared and rng.random() < 0.4:
                net = shared[net]
            else:
                for _ in range(rng.choice((0, 1, 1, 2, 3))):
                    buf = f"buf{len(gates)}"
                    gates.append((buf, "BUF", [net]))
                    shared[net] = buf
                    net = buf
            inputs.append(net)
        if len(inputs) > 1 and rng.random() < 0.2:
            inputs[1] = inputs[0]
        gates.append((gate.name, gate.kind, inputs))
    rng.shuffle(gates)
    c = Circuit(base.name)
    c.add_inputs(base.inputs)
    for name, kind, inputs in gates:
        c.add_gate(name, kind, inputs)
    c.add_outputs(base.outputs)
    c.validate()
    return c


BUFFER_CASES = {
    "rewired": _buffer_rewired,
    "po-kept": _po_buffer,
    "chain": _buffer_chain,
    "downstream-first": _downstream_first,
    "two-pins": _two_pins,
    "two-buffers": _two_buffers,
    "into-po-buffer": _into_po_buffer,
    "constant": _constant_buffer,
    "side-fanout-chain": _chain_with_side_fanout,
}
for _seed in range(6):
    BUFFER_CASES[f"shuffled-{_seed}"] = lambda s=_seed: _shuffled_buffers(s)


def _recorded_sweep(sweep, circuit):
    """Run ``sweep``; return its result, its edits in order and the gates."""
    edits = []
    replace_gate, remove_gate = circuit.replace_gate, circuit.remove_gate

    def replace(name, kind, inputs, cell=None):
        edits.append(("replace", name, tuple(inputs)))
        return replace_gate(name, kind, inputs, cell=cell)

    def remove(name):
        edits.append(("remove", name))
        return remove_gate(name)

    circuit.replace_gate, circuit.remove_gate = replace, remove
    removed = sweep(circuit)
    table = [(n, circuit.gate(n).cell.name, circuit.gate(n).inputs)
             for n in circuit.gate_names()]
    return removed, edits, table


class TestBufferSweep:
    def test_buffer_rewired(self):
        c = _buffer_rewired()
        assert sweep_buffers(c) == 1
        assert c.gate("n").inputs == ("a",)
        c.validate()

    def test_po_buffer_kept(self):
        c = _po_buffer()
        assert sweep_buffers(c) == 0
        assert c.has_net("out")

    def test_buffer_chain(self):
        c = _buffer_chain()
        assert sweep_buffers(c) == 2
        assert c.gate("n").inputs == ("a",)

    @pytest.mark.parametrize("case", sorted(BUFFER_CASES))
    def test_buffer_sweep_replays_reference_edits(self, case):
        """Same count, same edits in the same order, same gate table."""
        build = BUFFER_CASES[case]
        expected = _recorded_sweep(_reference_sweep, build())
        circuit = build()
        golden = circuit.clone("golden")
        assert _recorded_sweep(sweep_buffers, circuit) == expected
        assert expected[0] > 0 or case == "po-kept"
        circuit.validate()
        assert exhaustive_equivalent(golden, circuit).equivalent

    def test_buffer_sweep_builds_no_fanout_table_per_buffer(self, monkeypatch):
        calls = []
        compute_fanouts = Circuit._compute_fanouts

        def counted(circuit):
            calls.append(circuit.name)
            return compute_fanouts(circuit)

        monkeypatch.setattr(Circuit, "_compute_fanouts", counted)
        c = _chain_with_side_fanout(50)
        assert sweep_buffers(c) == 50
        assert len(calls) <= 1
        assert c.gate("n").inputs == ("a",)
        assert all(c.gate(f"s{i}").inputs == ("a", "c") for i in range(50))


class TestConstantPropagation:
    def _const_circuit(self, const_kind, gate_kind):
        c = Circuit("cp")
        c.add_inputs(["a", "b"])
        c.add_gate("k", const_kind, [])
        c.add_gate("g", gate_kind, ["a", "k"])
        c.add_gate("out", "OR", ["g", "b"])
        c.add_output("out")
        return c

    def test_controlling_constant_collapses_gate(self):
        c = self._const_circuit("CONST0", "AND")
        propagate_constants(c)
        assert c.gate("g").kind == "CONST0"

    def test_identity_constant_narrows_gate(self):
        c = self._const_circuit("CONST1", "AND")
        propagate_constants(c)
        assert c.gate("g").kind == "BUF"
        assert c.gate("g").inputs == ("a",)

    def test_xor_with_const1_becomes_inverter(self):
        c = self._const_circuit("CONST1", "XOR")
        propagate_constants(c)
        assert c.gate("g").kind == "INV"

    def test_xor_with_const0_becomes_buffer(self):
        c = self._const_circuit("CONST0", "XOR")
        propagate_constants(c)
        assert c.gate("g").kind == "BUF"

    def test_inverted_constant(self):
        c = Circuit("cp")
        c.add_input("a")
        c.add_gate("k", "CONST0", [])
        c.add_gate("n", "INV", ["k"])
        c.add_gate("out", "AND", ["a", "n"])
        c.add_output("out")
        propagate_constants(c)
        assert c.gate("n").kind == "CONST1"
        assert c.gate("out").kind == "BUF"

    def test_preserves_function(self, fig1_circuit):
        golden = fig1_circuit.clone("golden")
        fig1_circuit.remove_gate("F")
        fig1_circuit.add_gate("k", "CONST1", [])
        fig1_circuit.add_gate("F", "AND", ["X", "Y", "k"])
        cleanup(fig1_circuit)
        assert exhaustive_equivalent(golden, fig1_circuit).equivalent


class TestCleanup:
    def test_cleanup_runs_to_fixed_point(self):
        c = Circuit("all")
        c.add_inputs(["a", "b"])
        c.add_gate("k1", "CONST1", [])
        c.add_gate("g", "AND", ["a", "k1"])   # -> BUF(a)
        c.add_gate("h", "OR", ["g", "b"])
        c.add_gate("dead", "INV", ["h"])
        c.add_output("h")
        totals = cleanup(c)
        assert totals["constants"] >= 1
        assert totals["dead"] >= 2  # dead INV and the constant generator
        assert totals["buffers"] >= 1
        c.validate()
        assert c.n_gates == 1
        assert c.gate("h").inputs == ("a", "b")
