"""Unit tests for fingerprint embedding and removal."""

import pytest

from repro.fingerprint import (
    EmbeddingError,
    FingerprintedCircuit,
    embed,
    find_locations,
    full_assignment,
    representative_slots,
)
from repro.sim import check_equivalence, exhaustive_equivalent
from repro.bench import build_benchmark


@pytest.fixture
def fig1_setup(fig1_circuit):
    catalog = find_locations(fig1_circuit)
    return fig1_circuit, catalog


class TestApplyRemove:
    def test_apply_widen(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        slot = catalog.slots()[0]
        fp.apply(slot.target, 1)
        assert fp.n_active == 1
        gate = fp.circuit.gate(slot.target)
        assert gate.n_inputs == base.gate(slot.target).n_inputs + 1
        assert exhaustive_equivalent(base, fp.circuit).equivalent

    def test_remove_restores_exactly(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        slot = catalog.slots()[0]
        for index in range(1, len(slot.variants) + 1):
            fp.apply(slot.target, index)
            fp.remove(slot.target)
            assert fp.circuit.gate(slot.target) == base.gate(slot.target)
            assert fp.circuit.n_gates == base.n_gates

    def test_apply_zero_clears(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        slot = catalog.slots()[0]
        fp.apply(slot.target, 1)
        fp.apply(slot.target, 0)
        assert fp.n_active == 0

    def test_reapply_switches_variant(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        slot = catalog.slots()[0]
        if len(slot.variants) < 2:
            pytest.skip("needs 2+ variants")
        fp.apply(slot.target, 1)
        first = fp.circuit.gate(slot.target)
        fp.apply(slot.target, 2)
        second = fp.circuit.gate(slot.target)
        assert first != second
        assert fp.applied[slot.target] == 2

    def test_invalid_variant_rejected(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        slot = catalog.slots()[0]
        with pytest.raises(EmbeddingError):
            fp.apply(slot.target, 99)
        with pytest.raises(EmbeddingError):
            fp.apply("not_a_slot", 1)
        with pytest.raises(EmbeddingError):
            fp.remove(slot.target)

    def test_clear(self, fig1_setup):
        base, catalog = fig1_setup
        fp = FingerprintedCircuit(base, catalog)
        for slot in catalog.slots():
            fp.apply(slot.target, 1)
        fp.clear()
        assert fp.n_active == 0
        assert fp.circuit.n_gates == base.n_gates


class TestInverterSharing:
    def test_shared_inverter_refcounted(self):
        # C432's catalog shares negative literals between slots (C880's
        # shares none).
        base = build_benchmark("C432")
        catalog = find_locations(base)
        fp = FingerprintedCircuit(base, catalog)
        # Find two slots with the same negative literal source.
        base_inverted = {
            g.inputs[0] for g in base.gates if g.kind == "INV"
        }
        by_source = {}
        for slot in catalog.slots():
            for index, variant in enumerate(slot.variants, start=1):
                for literal in variant.literals:
                    # Sources with an existing golden inverter reuse it and
                    # never mint an fp_inv gate; skip those here.
                    if not literal.positive and literal.net not in base_inverted:
                        by_source.setdefault(literal.net, []).append(
                            (slot.target, index)
                        )
        shared = next(
            (entries for entries in by_source.values()
             if len({t for t, _ in entries}) >= 2),
            None,
        )
        assert shared is not None, "no shared negative literal in this catalog"
        t1, i1 = shared[0]
        t2, i2 = next(e for e in shared if e[0] != t1)
        fp.apply(t1, i1)
        inverters_after_one = sum(
            1 for g in fp.circuit.gates if g.name.startswith("fp_inv_")
        )
        fp.apply(t2, i2)
        inverters_after_two = sum(
            1 for g in fp.circuit.gates if g.name.startswith("fp_inv_")
        )
        assert inverters_after_two == inverters_after_one  # shared
        fp.remove(t1)
        assert any(g.name.startswith("fp_inv_") for g in fp.circuit.gates)
        fp.remove(t2)
        assert not any(g.name.startswith("fp_inv_") for g in fp.circuit.gates)


class TestFullEmbedding:
    def test_representative_slot_is_deepest(self):
        base = build_benchmark("C432")
        catalog = find_locations(base)
        levels = base.levels()
        for location, slot in zip(catalog, representative_slots(base, catalog)):
            depths = [levels.get(s.target, 0) for s in location.slots]
            assert levels.get(slot.target, 0) == max(depths)

    def test_full_assignment_one_per_location(self):
        base = build_benchmark("C432")
        catalog = find_locations(base)
        assignment = full_assignment(base, catalog)
        active = [t for t, v in assignment.items() if v > 0]
        assert len(active) == catalog.n_locations

    def test_embed_validates_and_preserves_function(self):
        base = build_benchmark("C880")
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog))
        assert copy.n_active == catalog.n_locations
        result = check_equivalence(base, copy.circuit, n_random_vectors=2048)
        assert result.equivalent

    def test_assignment_roundtrip(self, fig1_setup):
        base, catalog = fig1_setup
        slot = catalog.slots()[0]
        copy = embed(base, catalog, {slot.target: 1})
        assignment = copy.assignment()
        assert assignment[slot.target] == 1
