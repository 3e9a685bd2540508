"""Unit tests for local ODC analysis (paper §III.A)."""

import pytest

from repro.cells import GENERIC_LIB
from repro.cells import functions
from repro.logic import (
    TruthTable,
    gate_creates_odc,
    gate_input_odc,
    has_nonzero_odc,
    local_odc,
    odc_gate_table,
    odc_summary,
    single_input_triggers,
)


class TestLocalOdc:
    def test_and2_odc_is_other_input_low(self):
        odc = local_odc("AND", 2, 0)
        # ODC_in0 = in1'
        expected = ~TruthTable.variable("in1", odc.variables)
        assert odc.equivalent(expected)

    def test_or3_odc(self):
        odc = local_odc("OR", 3, 0)
        v1 = TruthTable.variable("in1", odc.variables)
        v2 = TruthTable.variable("in2", odc.variables)
        assert odc.equivalent(v1 | v2)

    def test_nand_same_as_and(self):
        assert local_odc("NAND", 2, 0).bits == local_odc("AND", 2, 0).bits

    def test_xor_has_empty_odc(self):
        assert local_odc("XOR", 2, 0).is_contradiction()
        assert local_odc("XNOR", 3, 1).is_contradiction()

    def test_inv_has_empty_odc(self):
        assert local_odc("INV", 1, 0).is_contradiction()

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            local_odc("AND", 2, 5)

    def test_has_nonzero_odc(self):
        assert has_nonzero_odc("AND", 2)
        assert has_nonzero_odc("NOR", 4, 2)
        assert not has_nonzero_odc("XOR", 2)
        assert not has_nonzero_odc("BUF", 1)


class TestGateLevelOdc:
    def test_gate_input_odc_uses_net_names(self, fig1_circuit):
        gate = fig1_circuit.gate("F")  # AND(X, Y)
        odc = gate_input_odc(gate, 0)
        expected = ~TruthTable.variable("Y", odc.variables)
        assert odc.equivalent(expected)

    def test_repeated_nets_rejected(self):
        from repro.netlist import Circuit

        c = Circuit("r")
        c.add_input("a")
        c.add_gate("g", "AND", ["a", "a"])
        with pytest.raises(ValueError):
            gate_input_odc(c.gate("g"), 0)

    def test_gate_creates_odc(self, fig1_circuit):
        assert gate_creates_odc(fig1_circuit.gate("F"))
        assert gate_creates_odc(fig1_circuit.gate("Y"))

    def test_triggers_enumerated(self, fig1_circuit):
        triggers = single_input_triggers(fig1_circuit.gate("F"))
        assert len(triggers) == 2  # each input can block the other
        pair = {(t.target_position, t.trigger_position) for t in triggers}
        assert pair == {(0, 1), (1, 0)}
        assert all(t.trigger_value == 0 for t in triggers)  # AND controls at 0

    def test_nor_trigger_value(self):
        from repro.netlist import Circuit

        c = Circuit("n")
        c.add_inputs(["a", "b"])
        c.add_gate("g", "NOR", ["a", "b"])
        c.add_output("g")
        triggers = single_input_triggers(c.gate("g"))
        assert all(t.trigger_value == 1 for t in triggers)

    def test_xor_has_no_triggers(self, parity8):
        for gate in parity8.gates:
            if gate.kind == "XOR":
                assert single_input_triggers(gate) == []


class TestSummaries:
    def test_odc_summary(self, fig1_circuit):
        summary = odc_summary(fig1_circuit)
        assert set(summary) == {"X", "Y", "F"}
        assert summary["F"] == [0, 1]

    def test_odc_gate_table_reproduces_paper_table1(self):
        """The library-wide ODC table: controlling-value cells only."""
        table = odc_gate_table(GENERIC_LIB)
        assert table["NAND2"] and table["NOR3"] and table["AND4"] and table["OR2"]
        assert not table["XOR2"] and not table["XNOR2"]
        assert not table["INV"] and not table["BUF"]


class TestCellsFunctionsCrossCheck:
    def test_controlling_value_rule_matches_eq1(self):
        """The finder's rule, "another input at the controlling value",
        is exactly Eq. 1's local ODC for every library cell."""
        for cell in GENERIC_LIB:
            kind, n = cell.kind, cell.n_inputs
            assert functions.has_odc(kind, n) == has_nonzero_odc(kind, n), cell.name
            control = functions.controlling_value(kind)
            for position in range(n):
                odc = local_odc(kind, n, position)
                if not functions.has_odc(kind, n):
                    assert odc.is_contradiction(), (cell.name, position)
                    continue
                expected = TruthTable.constant(0, odc.variables)
                for other in range(n):
                    if other != position:
                        var = TruthTable.variable(f"in{other}", odc.variables)
                        expected = expected | (var if control else ~var)
                assert odc.equivalent(expected), (cell.name, position)


class TestSummaryCompilationCost:
    def test_one_compile_per_summary_call(self, fig1_circuit):
        """odc_summary must reuse the version-cached IR, not re-derive
        topological structure per gate (ISSUE 5 satellite fix)."""
        from repro import telemetry

        circuit = fig1_circuit.clone("compile_count")
        with telemetry.enabled(trace=False, metrics=True):
            telemetry.get_registry().reset()
            odc_summary(circuit)
            first = telemetry.get_registry().snapshot()["counters"]
            assert first.get("ir.compile", 0) == 1
            odc_summary(circuit)
            odc_summary(circuit)
            again = telemetry.get_registry().snapshot()["counters"]
            # Repeat calls on an unmodified circuit are pure cache hits.
            assert again.get("ir.compile", 0) == 1
