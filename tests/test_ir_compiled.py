"""Unit tests for the compiled-circuit IR (:mod:`repro.ir`).

Covers the interning contract (PIs first, gate outputs in topological
order, fanins always below their gate), CSR adjacency, levels, batch
construction invariants, cone queries against the graph-module reference,
and version-keyed cache invalidation.
"""

import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest

from repro.bench import build_benchmark
from repro.bench.random_logic import RandomLogicSpec, generate
from repro.bench.suite import SUITE_ORDER
from repro.fingerprint import embed, find_locations, full_assignment
from repro.ir import CompiledCircuit, compile_circuit, kernels
from repro.ir.compiled import Batch
from repro.ir.kernels import popcount, popcount_lut
from repro.netlist.circuit import Circuit
from repro.netlist.graph import transitive_fanout
from tests.golden.make_catalog_pin import c17
from tests.ir_reference import ReferenceCompiledCircuit


def small_circuit() -> Circuit:
    c = Circuit("ir_small")
    c.add_inputs(["a", "b", "c", "d"])
    c.add_gate("n1", "NAND", ["a", "b"])
    c.add_gate("n2", "NOR", ["c", "d"])
    c.add_gate("n3", "XOR", ["n1", "n2"])
    c.add_gate("n4", "INV", ["n3"])
    c.add_gate("n5", "AND", ["n1", "n2", "n3"])
    c.add_gate("k0", "CONST0", [])
    c.add_gate("n6", "OR", ["n5", "k0"])
    c.add_output("n4")
    c.add_output("n6")
    return c


def random_circuit(seed: int, n_gates: int = 150) -> Circuit:
    spec = RandomLogicSpec(
        name=f"ir_rand_{seed}", n_inputs=12, n_outputs=5,
        n_gates=n_gates, seed=seed,
    )
    return generate(spec)


class TestInterning:
    def test_inputs_come_first_in_declaration_order(self):
        c = small_circuit()
        ir = compile_circuit(c)
        assert list(ir.names[: ir.n_inputs]) == c.inputs
        assert all(ir.is_input_id(i) for i in range(ir.n_inputs))
        assert not ir.is_input_id(ir.n_inputs)

    def test_gates_follow_in_topological_order(self):
        c = small_circuit()
        ir = compile_circuit(c)
        topo = [g.name for g in c.topological_order()]
        assert list(ir.names[ir.n_inputs:]) == topo

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fanins_precede_their_gate(self, seed):
        ir = compile_circuit(random_circuit(seed))
        for out in range(ir.n_inputs, ir.n_nets):
            row = ir.fanin_row(out)
            assert (row < out).all()

    def test_id_name_roundtrip(self):
        ir = compile_circuit(small_circuit())
        for net_id, name in enumerate(ir.names):
            assert ir.id_of(name) == net_id
            assert ir.name_of(net_id) == name

    def test_gate_of_returns_the_driving_gate(self):
        c = small_circuit()
        ir = compile_circuit(c)
        for gate in c.gates:
            assert ir.gate_of(ir.id_of(gate.name)) is c.gate(gate.name)


class TestAdjacency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fanin_rows_match_gate_inputs(self, seed):
        c = random_circuit(seed)
        ir = compile_circuit(c)
        for gate in c.gates:
            row = ir.fanin_row(ir.id_of(gate.name))
            assert [ir.name_of(int(i)) for i in row] == list(gate.inputs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fanout_rows_match_circuit_fanouts(self, seed):
        c = random_circuit(seed)
        ir = compile_circuit(c)
        for name in list(c.inputs) + c.gate_names():
            net_id = ir.id_of(name)
            consumers = sorted(ir.name_of(int(i)) for i in ir.fanout_row(net_id))
            assert consumers == sorted(c.fanouts(name))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_levels_match_circuit_levels(self, seed):
        c = random_circuit(seed)
        ir = compile_circuit(c)
        assert ir.levels_by_name() == c.levels()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fanout_cone_matches_graph_reference(self, seed):
        c = random_circuit(seed)
        ir = compile_circuit(c)
        nets = (list(c.inputs) + c.gate_names())[::7]
        for net in nets:
            cone = {ir.name_of(int(i)) for i in ir.fanout_cone(net)}
            assert cone == transitive_fanout(c, net) - {net}

    def test_fanout_cone_is_an_evaluation_order(self):
        ir = compile_circuit(random_circuit(3))
        cone = ir.fanout_cone(ir.names[0])
        assert (np.diff(cone) > 0).all()  # ascending IDs == topological


class TestBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batches_cover_every_gate_exactly_once(self, seed):
        c = random_circuit(seed)
        ir = compile_circuit(c)
        seen = np.concatenate([b.out_ids for b in ir.batches])
        assert sorted(seen.tolist()) == list(range(ir.n_inputs, ir.n_nets))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_rows_sorted_and_col_counts_consistent(self, seed):
        ir = compile_circuit(random_circuit(seed))
        for b in ir.batches:
            if b.op is None:
                continue
            assert (np.diff(b.arities) <= 0).all()  # descending true arity
            for i in range(b.arity):
                assert b.col_counts[i] == int(np.count_nonzero(b.arities > i))
            # Padded positions repeat the last real fanin.
            for row, real in zip(b.fanins, b.arities):
                assert (row[int(real):] == row[int(real) - 1]).all()

    def test_xor_batches_are_never_padded(self):
        ir = compile_circuit(random_circuit(1))
        for b in ir.batches:
            if b.op == kernels.OP_XOR:
                assert (b.arities == b.arity).all()

    def test_levels_nondecreasing_across_schedule(self):
        ir = compile_circuit(random_circuit(2))
        levels = [b.level for b in ir.batches]
        assert levels == sorted(levels)


class TestCaching:
    def test_compile_is_cached_on_version(self):
        c = small_circuit()
        assert compile_circuit(c) is compile_circuit(c)

    def test_structural_edit_invalidates(self):
        c = small_circuit()
        before = compile_circuit(c)
        c.add_gate("n7", "INV", ["n6"])
        after = compile_circuit(c)
        assert after is not before
        assert "n7" in after.names
        assert "n7" not in before.names

    def test_fresh_compile_sees_new_topology(self):
        c = small_circuit()
        compile_circuit(c)
        c.add_gate("n7", "AND", ["n1", "n2"])
        ir = compile_circuit(c)
        row = ir.fanin_row(ir.id_of("n7"))
        assert [ir.name_of(int(i)) for i in row] == ["n1", "n2"]

    def test_direct_construction_bypasses_cache(self):
        c = small_circuit()
        assert CompiledCircuit(c) is not CompiledCircuit(c)

    def test_ir_is_freed_without_the_cyclic_gc(self):
        # The circuit's cache holds its IR; an IR that referred back to
        # the circuit would survive both until a cyclic collection.
        gc.disable()
        try:
            c = small_circuit()
            compiled = weakref.ref(compile_circuit(c))
            circuit = weakref.ref(c)
            del c
            assert circuit() is None
            assert compiled() is None
        finally:
            gc.enable()


def assert_same_value(actual, expected, where: str) -> None:
    assert type(actual) is type(expected), where
    if isinstance(expected, np.ndarray):
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), where
        assert np.array_equal(actual, expected), where
    else:
        assert actual == expected, where


def assert_same_ir(ir: CompiledCircuit, reference: CompiledCircuit) -> None:
    """Every attribute, and every field of every batch, equal in type,
    dtype, shape and value."""
    assert vars(ir).keys() == vars(reference).keys()
    for name, expected in vars(reference).items():
        actual = getattr(ir, name)
        if name != "batches":
            assert_same_value(actual, expected, name)
            continue
        assert type(actual) is tuple and len(actual) == len(expected)
        for index, (got, want) in enumerate(zip(actual, expected)):
            for field in dataclasses.fields(Batch):
                assert_same_value(
                    getattr(got, field.name), getattr(want, field.name),
                    f"batches[{index}].{field.name}",
                )


#: (kind, arity) pairs the edit replay draws new gates from.
EDIT_CELLS = [
    ("AND", 2), ("AND", 5), ("NAND", 3), ("OR", 2), ("NOR", 4), ("XOR", 2),
    ("XOR", 3), ("XNOR", 2), ("XNOR", 3), ("INV", 1), ("BUF", 1),
]


def edited_versions(seed: int, edits: int = 16):
    """A random-logic circuit, then the same circuit after each of
    ``edits`` seeded structural edits: added gates (some reading one net on
    two pins), replaced gates, removed dead gates, constants and outputs."""
    circuit = random_circuit(seed, n_gates=60)
    rng = random.Random(seed)
    yield circuit
    for step in range(edits):
        order = [gate.name for gate in circuit.topological_order()]
        edit = rng.choice(("add", "add", "replace", "remove", "const", "output"))
        if edit in ("add", "replace"):
            kind, arity = rng.choice(EDIT_CELLS)
            if edit == "replace":
                target = rng.choice(order[1:])
                # Read only nets before the target, so no cycle forms.
                nets = circuit.inputs + order[: order.index(target)]
            else:
                nets = circuit.inputs + order
            inputs = [rng.choice(nets) for _ in range(arity)]
            if edit == "replace":
                circuit.replace_gate(target, kind, inputs)
            else:
                circuit.add_gate(f"edit{step}", kind, inputs)
        elif edit == "remove":
            dead = [
                name for name in order
                if not circuit.fanouts(name) and not circuit.is_output(name)
            ]
            if not dead:
                continue
            circuit.remove_gate(rng.choice(dead))
        elif edit == "const":
            circuit.add_gate(f"edit{step}_k", rng.choice(("CONST0", "CONST1")), [])
            circuit.add_gate(f"edit{step}", "OR", [f"edit{step}_k", rng.choice(order)])
        else:
            fresh = [name for name in order if not circuit.is_output(name)]
            circuit.add_output(rng.choice(fresh))
        yield circuit


def suite_design(name: str) -> Circuit:
    return c17() if name == "c17" else build_benchmark(name)


#: Designs whose reference comparison tier-1 runs; the rest of the suite
#: runs under ``-m differential``.
REFERENCE_TIER1 = ("c17", "C432", "C880")


class TestReferenceCompile:
    """The compile from lists builds exactly what the element-by-element
    compile (``tests/ir_reference.py``) built."""

    @staticmethod
    def check_design(name: str) -> None:
        base = suite_design(name)
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog)).circuit
        assert set(copy.gates) != set(base.gates)
        for circuit in (base, copy):
            assert_same_ir(CompiledCircuit(circuit), ReferenceCompiledCircuit(circuit))

    @pytest.mark.parametrize("name", REFERENCE_TIER1)
    def test_design_and_full_embedding(self, name):
        self.check_design(name)

    @pytest.mark.differential
    @pytest.mark.parametrize(
        "name", [name for name in SUITE_ORDER if name not in REFERENCE_TIER1]
    )
    def test_differential_design_and_full_embedding(self, name):
        self.check_design(name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_logic_after_structural_edits(self, seed):
        versions = 0
        for circuit in edited_versions(seed):
            assert_same_ir(CompiledCircuit(circuit), ReferenceCompiledCircuit(circuit))
            versions += 1
        assert versions > 1

    def test_small_circuit_with_a_constant_and_a_repeated_fanin(self):
        c = small_circuit()
        c.add_gate("n7", "AND", ["n1", "n1", "n2"])
        c.add_gate("k1", "CONST1", [])
        c.add_output("n7")
        c.add_output("k1")
        assert_same_ir(CompiledCircuit(c), ReferenceCompiledCircuit(c))

    def test_circuit_without_gates(self):
        c = Circuit("wires")
        c.add_inputs(["a", "b"])
        c.add_output("a")
        assert_same_ir(CompiledCircuit(c), ReferenceCompiledCircuit(c))


class TestKernels:
    def test_eval_gate_matches_eval_batch(self):
        rng = np.random.default_rng(5)
        operands = rng.integers(0, 2**63, size=(1, 3, 4), dtype=np.uint64)
        rows = [operands[0, i] for i in range(3)]
        for kind, code in kernels.KIND_CODE.items():
            if kind.startswith("CONST"):
                continue
            arity = 1 if kind in ("BUF", "INV") else 3
            batch_out = kernels.eval_batch(code, operands[:, :arity, :])[0]
            gate_out = kernels.eval_gate(code, rows[:arity])
            assert np.array_equal(batch_out, gate_out), kind

    def test_popcount_agrees_with_lut(self):
        rng = np.random.default_rng(6)
        words = rng.integers(0, 2**63, size=257, dtype=np.uint64)
        words[0] = 0
        words[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        assert np.array_equal(popcount(words), popcount_lut(words))
        assert int(popcount(words[1])) == 64
