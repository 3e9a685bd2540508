"""Unit tests for SDC-based fingerprinting (the companion method, ref [9])."""

import random

import pytest

from repro.fingerprint import (
    SdcCodec,
    SdcFingerprint,
    find_locations,
    find_sdc_slots,
    embed as odc_embed,
    full_assignment,
    observed_patterns,
    sdc_embed,
    sdc_extract,
)
from repro.netlist import Circuit
from repro.sim import check_equivalence, exhaustive_equivalent
from repro.bench import build_benchmark


@pytest.fixture
def constrained_circuit():
    """A circuit with a guaranteed SDC-rich gate.

    ``y = NAND(a, b)`` is the complement of ``x = AND(a, b)``, so gate
    ``f = AND(x, y)`` only ever sees the patterns (0,1) and (1,0): half of
    its input space is satisfiability don't care, and any kind that is 0
    on both reachable patterns (NOR, XNOR) is a legal swap.
    """
    c = Circuit("sdc_demo")
    c.add_inputs(["a", "b"])
    c.add_gate("x", "AND", ["a", "b"])
    c.add_gate("y", "NAND", ["a", "b"])
    c.add_gate("f", "AND", ["x", "y"])
    c.add_gate("g", "OR", ["f", "a"])
    c.add_outputs(["f", "g"])
    c.validate()
    return c


class TestObservedPatterns:
    def test_exact_care_set(self, constrained_circuit):
        masks, exact = observed_patterns(constrained_circuit)
        assert exact
        # Gate f over (x, y): only patterns (x=0,y=1) and (x=1,y=0) occur.
        assert masks["f"] == 0b0110

    def test_full_care_set_on_free_gate(self, fig1_circuit):
        masks, exact = observed_patterns(fig1_circuit)
        # X = AND(A, B) over free primary inputs: all 4 patterns occur.
        assert masks["X"] == 0b1111

    def test_random_sampling_path(self):
        from repro.bench import RandomLogicSpec, generate

        wide = generate(
            RandomLogicSpec(name="wide", n_inputs=30, n_outputs=4,
                            n_gates=120, seed=5)
        )
        masks, exact = observed_patterns(wide, n_random_vectors=1024)
        assert not exact
        assert masks


class TestFindSlots:
    def test_demo_slot_found(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        targets = {slot.target for slot in catalog}
        assert "f" in targets
        slot = catalog.slot_by_target("f")
        assert slot.original_kind == "AND"
        assert slot.care_patterns == 2
        assert set(slot.alternatives) == {"NOR", "XNOR"}

    def test_every_alternative_is_equivalent(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        for slot in catalog:
            for index in range(1, slot.n_configs):
                copy = sdc_embed(constrained_circuit, catalog, {slot.target: index})
                assert exhaustive_equivalent(
                    constrained_circuit, copy.circuit
                ).equivalent, (slot.target, index)

    def test_no_slots_without_dont_cares(self, fig1_circuit):
        catalog = find_sdc_slots(fig1_circuit)
        # All fig1 gate inputs are free primary inputs: full care sets.
        assert catalog.n_slots == 0

    def test_max_slots_cap(self):
        base = build_benchmark("C432")
        capped = find_sdc_slots(base, max_slots=5)
        assert capped.n_slots <= 5

    def test_sat_checks_encode_the_base_once(self):
        """Every candidate swap of a sampled care set is verified in one
        CEC session."""
        from repro import telemetry

        base = build_benchmark("C432")
        telemetry.get_tracer().reset()
        try:
            with telemetry.enabled(trace=True, metrics=False):
                catalog = find_sdc_slots(base, max_slots=5)
            encodes = [
                node
                for root in telemetry.get_tracer().drain()
                for node in root.walk()
                if node.name == "sat.encode_base"
            ]
        finally:
            telemetry.get_tracer().reset()
        assert not catalog.exact_care_sets and catalog.n_slots > 1
        assert len(encodes) == 1

    def test_benchmark_has_sdc_slots(self):
        base = build_benchmark("C880")
        catalog = find_sdc_slots(base, max_slots=12)
        assert catalog.n_slots > 0
        copy = sdc_embed(
            base, catalog, {s.target: 1 for s in catalog}
        )
        assert check_equivalence(base, copy.circuit, n_random_vectors=4096).equivalent


class TestEmbedExtract:
    def test_roundtrip(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        codec = SdcCodec(catalog)
        rng = random.Random(1)
        for _ in range(min(4, codec.combinations)):
            value = rng.randrange(codec.combinations)
            copy = sdc_embed(constrained_circuit, catalog, codec.encode(value))
            read = sdc_extract(copy.circuit, constrained_circuit, catalog)
            assert codec.decode(read) == value

    def test_apply_zero_restores(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        fp = SdcFingerprint(constrained_circuit, catalog)
        slot = catalog.slots[0]
        fp.apply(slot.target, 1)
        fp.apply(slot.target, 0)
        assert fp.circuit.gate(slot.target) == constrained_circuit.gate(slot.target)
        assert fp.applied == {}

    def test_bad_configuration_rejected(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        fp = SdcFingerprint(constrained_circuit, catalog)
        with pytest.raises(ValueError):
            fp.apply(catalog.slots[0].target, 99)

    def test_tamper_reads_negative(self, constrained_circuit):
        catalog = find_sdc_slots(constrained_circuit)
        slot = catalog.slots[0]
        copy = sdc_embed(constrained_circuit, catalog, {slot.target: 1})
        # Attacker rewires the swapped gate's inputs.
        gate = copy.circuit.gate(slot.target)
        copy.circuit.replace_gate(
            slot.target, gate.kind, list(reversed(gate.inputs))
        )
        read = sdc_extract(copy.circuit, constrained_circuit, catalog)
        if tuple(reversed(gate.inputs)) != gate.inputs:
            assert read[slot.target] == -1


class TestComposition:
    def test_sdc_composes_with_odc(self):
        """SDC swaps leave all reachable values intact, so they stack on
        top of an ODC embedding without interaction."""
        base = build_benchmark("C432")
        odc_catalog = find_locations(base)
        odc_copy = odc_embed(base, odc_catalog, full_assignment(base, odc_catalog))
        sdc_catalog = find_sdc_slots(odc_copy.circuit, max_slots=6)
        if sdc_catalog.n_slots == 0:
            pytest.skip("no SDC slot on this embedding")
        stacked = sdc_embed(
            odc_copy.circuit, sdc_catalog, {s.target: 1 for s in sdc_catalog}
        )
        assert check_equivalence(base, stacked.circuit, n_random_vectors=4096).equivalent
