"""Unit tests for the technology mapper (the ABC stand-in)."""

import itertools

import pytest

from repro import telemetry
from repro.netlist import parse_blif
from repro.sim import Simulator
from repro.techmap import MappingError, TechMapper, map_network

BLIF = """
.model demo
.inputs a b c d
.outputs f g h
.names a b c t
111 1
.names t d f
1- 1
-1 1
.names a b g
00 0
.names c h
0 1
.end
"""


def _check_semantics(network, circuit):
    sim = Simulator(circuit)
    for bits in itertools.product([0, 1], repeat=len(network.inputs)):
        assignment = dict(zip(network.inputs, bits))
        expected = network.evaluate(assignment)
        got = sim.run_single(assignment)
        for out in network.outputs:
            assert got[out] == expected[out], (assignment, out)


class TestMappingStyles:
    def test_aoi_semantics(self):
        network = parse_blif(BLIF)
        _check_semantics(network, map_network(network, style="aoi"))

    def test_nand_semantics(self):
        network = parse_blif(BLIF)
        _check_semantics(network, map_network(network, style="nand"))

    def test_nand_style_uses_nands(self):
        network = parse_blif(BLIF)
        circuit = map_network(network, style="nand")
        kinds = {g.kind for g in circuit.gates}
        assert "NAND" in kinds

    def test_unknown_style_rejected(self):
        with pytest.raises(MappingError):
            TechMapper(style="bogus")


class TestSpecialCases:
    def test_constant_nodes(self):
        blif = ".model k\n.inputs a\n.outputs k1 k0 f\n.names k1\n1\n.names k0\n\n.names a f\n1 1\n.end\n"
        network = parse_blif(blif)
        circuit = map_network(network)
        sim = Simulator(circuit)
        got = sim.run_single({"a": 0})
        assert got["k1"] == 1 and got["k0"] == 0

    def test_universal_cube_is_constant(self):
        blif = ".model u\n.inputs a b\n.outputs f\n.names a b f\n-- 1\n.end\n"
        network = parse_blif(blif)
        circuit = map_network(network)
        sim = Simulator(circuit)
        for bits in itertools.product([0, 1], repeat=2):
            assert sim.run_single(dict(zip("ab", bits)))["f"] == 1

    def test_single_literal_node(self):
        blif = ".model s\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n"
        network = parse_blif(blif)
        circuit = map_network(network)
        sim = Simulator(circuit)
        assert sim.run_single({"a": 0})["f"] == 1
        assert sim.run_single({"a": 1})["f"] == 0

    def test_po_names_preserved(self):
        network = parse_blif(BLIF)
        circuit = map_network(network)
        assert circuit.outputs == ["f", "g", "h"]
        circuit.validate()

    def test_inverter_sharing(self):
        # Two nodes both need a'; the mapper should create one inverter.
        blif = (
            ".model inv\n.inputs a b\n.outputs f g\n"
            ".names a b f\n01 1\n.names a b g\n00 1\n.end\n"
        )
        circuit = map_network(parse_blif(blif))
        inverters = [g for g in circuit.gates if g.kind == "INV" and g.inputs == ("a",)]
        assert len(inverters) == 1

    def test_arity_bounded_by_split(self):
        blif = (
            ".model wide\n.inputs " + " ".join(f"i{k}" for k in range(12)) +
            "\n.outputs f\n.names " + " ".join(f"i{k}" for k in range(12)) +
            " f\n" + "1" * 12 + " 1\n.end\n"
        )
        circuit = map_network(parse_blif(blif))
        assert all(g.n_inputs <= 4 for g in circuit.gates)
        sim = Simulator(circuit)
        assert sim.run_single({f"i{k}": 1 for k in range(12)})["f"] == 1
        assert sim.run_single({**{f"i{k}": 1 for k in range(12)}, "i5": 0})["f"] == 0


class TestAigStyle:
    def test_aig_semantics(self):
        network = parse_blif(BLIF)
        _check_semantics(network, map_network(network, style="aig"))

    def test_aig_texture(self):
        network = parse_blif(BLIF)
        circuit = map_network(network, style="aig")
        kinds = {g.kind for g in circuit.gates}
        assert kinds <= {"AND", "INV", "BUF", "CONST0", "CONST1"}

    def test_aig_removes_structural_redundancy(self):
        blif = (
            ".model dup\n.inputs a b\n.outputs f g\n"
            ".names a b f\n11 1\n.names a b g\n11 1\n.end\n"
        )
        circuit = map_network(parse_blif(blif), style="aig")
        ands = [g for g in circuit.gates if g.kind == "AND"]
        assert len(ands) == 1  # the duplicate cover strashes away

    def test_aig_style_on_c17(self):
        from repro.bench.data import data_path
        from repro.netlist import read_blif
        from repro.sim import exhaustive_equivalent

        network = read_blif(data_path("c17.blif"))
        plain = map_network(network)
        via_aig = map_network(network, style="aig")
        assert exhaustive_equivalent(plain, via_aig).equivalent


# A NOT node (mapped to INV + BUF), a constant folded out of an AND and
# a buffer node nothing reads: clean-up sweeps, folds and removes.
CLEANUP_BLIF = (
    ".model t\n.inputs a b\n.outputs f\n"
    ".names a n\n0 1\n.names k\n1\n.names n k b f\n111 1\n"
    ".names a d\n1 1\n.end\n"
)


@pytest.fixture
def clean_telemetry():
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()


class TestCleanupTelemetry:
    @pytest.mark.parametrize("style, removed", [
        ("aoi", {"constants": 1, "buffers": 2, "dead": 1}),
        ("nand", {"constants": 1, "buffers": 2, "dead": 1}),
        ("aig", {"constants": 0, "buffers": 0, "dead": 0}),  # strashed away
    ])
    def test_mapper_keeps_cleanup_totals(self, style, removed):
        mapper = TechMapper(style=style)
        mapper.map(parse_blif(CLEANUP_BLIF))
        assert mapper.cleanup_totals == removed

    def test_totals_reach_counters_and_span(self, clean_telemetry):
        with telemetry.enabled(trace=True, metrics=True):
            circuit = map_network(parse_blif(CLEANUP_BLIF))
        (root,) = telemetry.get_tracer().drain()
        counters = telemetry.get_registry().snapshot()["counters"]
        assert root.name == "techmap.map"
        assert root.attrs["gates"] == circuit.n_gates
        for kind, amount in {"constants": 1, "buffers": 2, "dead": 1}.items():
            assert counters[f"techmap.cleanup.{kind}"] == amount
            assert root.attrs[f"cleanup_{kind}"] == amount

    def test_nothing_counted_when_disabled(self, clean_telemetry):
        map_network(parse_blif(CLEANUP_BLIF))
        assert telemetry.get_registry().snapshot()["counters"] == {}
        assert telemetry.get_tracer().finished == []
