"""Integration tests for the end-to-end fingerprinting flow."""

import pytest

from repro.flows import FlowOptions, FlowResult, run_flow
from repro.netlist import parse_blif
from repro.bench import build_benchmark

BLIF = """
.model flowdemo
.inputs a b c d e
.outputs f
.names a b t
11 1
.names c d u
00 0
.names t u v
11 1
.names v e f
1- 1
-1 1
.end
"""


class TestFlow:
    def test_circuit_input(self, fig1_circuit):
        result = run_flow(fig1_circuit)
        assert isinstance(result, FlowResult)
        assert result.capacity.n_locations == 1
        assert result.verification.equivalent
        assert result.verification.proven  # 4 inputs -> exhaustive

    def test_blif_text_input(self):
        result = run_flow(BLIF)
        assert result.base.name == "flowdemo"
        assert result.verification.equivalent

    def test_sop_network_input(self):
        network = parse_blif(BLIF)
        result = run_flow(network, FlowOptions(map_style="nand"))
        assert result.verification.equivalent

    def test_bad_input_type(self):
        with pytest.raises(TypeError):
            run_flow(42)

    def test_explicit_assignment(self, fig1_circuit):
        from repro.fingerprint import find_locations

        catalog = find_locations(fig1_circuit)
        slot = catalog.slots()[0]
        result = run_flow(fig1_circuit, FlowOptions(assignment={slot.target: 1}))
        assert result.copy.applied == {slot.target: 1}

    def test_delay_constraint_branch(self):
        base = build_benchmark("C880")
        result = run_flow(base, FlowOptions(delay_constraint=0.05, verify=False))
        assert result.constrained is not None
        assert result.constrained.met_constraint
        budget = result.constrained.baseline_delay * 1.05
        assert result.fingerprinted_metrics.delay <= budget + 1e-9

    def test_summary_text(self, fig1_circuit):
        result = run_flow(fig1_circuit, FlowOptions(delay_constraint=0.5))
        text = result.summary()
        assert "fingerprint locations" in text
        assert "overhead" in text
        assert "delay constraint" in text

    def test_verify_disabled(self, fig1_circuit):
        result = run_flow(fig1_circuit, FlowOptions(verify=False))
        assert result.verification is None


class TestFlowMappingStyles:
    def test_aig_style_flow(self):
        result = run_flow(BLIF, FlowOptions(map_style="aig"))
        assert result.verification.equivalent
        kinds = {g.kind for g in result.base.gates}
        assert kinds <= {"AND", "INV", "BUF", "CONST0", "CONST1"}

    def test_nand_vs_aoi_same_function(self):
        a = run_flow(BLIF, FlowOptions(map_style="aoi", verify=False))
        b = run_flow(BLIF, FlowOptions(map_style="nand", verify=False))
        from repro.sim import exhaustive_equivalent

        assert exhaustive_equivalent(a.base, b.base).equivalent
