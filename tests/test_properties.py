"""Cross-cutting property-based tests over randomly generated circuits.

These are the library's core invariants (DESIGN.md §6), checked with
hypothesis-driven random netlists: every fingerprint configuration
preserves functionality; extraction inverts embedding; removal restores
the golden design bit-exactly; serialization round-trips preserve the
function.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import RandomLogicSpec, generate
from repro.fingerprint import (
    FingerprintCodec,
    FingerprintedCircuit,
    embed,
    extract,
    find_locations,
    full_assignment,
)
from repro.netlist import parse_blif, parse_verilog, write_blif, write_verilog
from repro.sat import sat_equivalent
from repro.sim import exhaustive_equivalent
from repro.techmap import map_network

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_circuit(seed: int, n_gates: int = 60):
    spec = RandomLogicSpec(
        name=f"rnd{seed}",
        n_inputs=8,
        n_outputs=3,
        n_gates=n_gates,
        seed=seed,
    )
    return generate(spec)


seeds = st.integers(0, 10_000)


class TestFingerprintInvariants:
    @given(seeds)
    @SETTINGS
    def test_every_embedding_is_equivalent(self, seed):
        base = small_circuit(seed)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(seed)
        for _ in range(3):
            assignment = codec.random_assignment(rng)
            copy = embed(base, catalog, assignment)
            assert exhaustive_equivalent(base, copy.circuit).equivalent

    @given(seeds)
    @SETTINGS
    def test_extraction_inverts_embedding(self, seed):
        base = small_circuit(seed)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        if codec.combinations < 2:
            return
        rng = random.Random(seed + 1)
        value = rng.randrange(codec.combinations)
        copy = embed(base, catalog, codec.encode(value))
        result = extract(copy.circuit, base, catalog)
        assert result.clean
        assert codec.decode(result.assignment) == value

    @given(seeds)
    @SETTINGS
    def test_distinct_values_distinct_structures(self, seed):
        base = small_circuit(seed)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        if codec.combinations < 3:
            return
        rng = random.Random(seed + 2)
        v1 = rng.randrange(codec.combinations)
        v2 = (v1 + 1 + rng.randrange(codec.combinations - 1)) % codec.combinations
        c1 = embed(base, catalog, codec.encode(v1)).circuit
        c2 = embed(base, catalog, codec.encode(v2)).circuit
        differs = any(
            c1.driver(s.target) != c2.driver(s.target) for s in catalog.slots()
        )
        assert differs

    @given(seeds)
    @SETTINGS
    def test_clear_restores_golden(self, seed):
        base = small_circuit(seed)
        catalog = find_locations(base)
        fp = FingerprintedCircuit(base, catalog)
        rng = random.Random(seed + 3)
        for slot in catalog.slots():
            fp.apply(slot.target, rng.randrange(len(slot.variants) + 1))
        fp.clear()
        assert fp.circuit.n_gates == base.n_gates
        for gate in base.gates:
            assert fp.circuit.gate(gate.name) == gate

    @given(seeds)
    @SETTINGS
    def test_full_embedding_sat_equivalent(self, seed):
        """SAT CEC agrees with exhaustive simulation on the full embedding."""
        base = small_circuit(seed, n_gates=40)
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog))
        sim_verdict = exhaustive_equivalent(base, copy.circuit).equivalent
        sat_verdict = sat_equivalent(base, copy.circuit).equivalent
        assert sim_verdict and sat_verdict


class TestSerializationInvariants:
    @given(seeds)
    @SETTINGS
    def test_verilog_roundtrip(self, seed):
        base = small_circuit(seed, n_gates=40)
        back = parse_verilog(write_verilog(base))
        assert exhaustive_equivalent(base, back).equivalent

    @given(seeds)
    @SETTINGS
    def test_blif_map_roundtrip(self, seed):
        base = small_circuit(seed, n_gates=40)
        network = parse_blif(write_blif(base))
        mapped = map_network(network)
        assert exhaustive_equivalent(base, mapped).equivalent

    @given(seeds)
    @SETTINGS
    def test_fingerprinted_verilog_roundtrip(self, seed):
        """A fingerprinted netlist survives Verilog exchange intact."""
        base = small_circuit(seed, n_gates=40)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        if codec.combinations < 2:
            return
        value = codec.combinations - 1
        copy = embed(base, catalog, codec.encode(value))
        back = parse_verilog(write_verilog(copy.circuit))
        result = extract(back, base, catalog)
        assert codec.decode(result.assignment) == value


class TestExtensionInvariants:
    @given(seeds)
    @SETTINGS
    def test_sdc_swaps_preserve_function(self, seed):
        from repro.fingerprint import find_sdc_slots, sdc_embed

        base = small_circuit(seed, n_gates=45)
        catalog = find_sdc_slots(base)
        if catalog.n_slots == 0:
            return
        copy = sdc_embed(
            base, catalog, {s.target: 1 for s in catalog}
        )
        assert exhaustive_equivalent(base, copy.circuit).equivalent

    @given(seeds)
    @SETTINGS
    def test_fuse_materialization_matches_embed(self, seed):
        from repro.fingerprint import FuseProductionLine

        base = small_circuit(seed, n_gates=45)
        catalog = find_locations(base)
        line = FuseProductionLine(base, catalog)
        if line.codec.combinations < 2:
            return
        value = seed % line.codec.combinations
        die = line.produce(value)
        reference = embed(base, catalog, line.codec.encode(value))
        materialized = die.materialize()
        for gate in reference.circuit.gates:
            assert materialized.gate(gate.name) == gate

    @given(seeds)
    @SETTINGS
    def test_structural_extraction_after_renaming(self, seed):
        from repro.fingerprint import extract_structural
        from repro.netlist import has_duplicate_gates, merge_duplicate_gates, rename_nets

        base = small_circuit(seed, n_gates=45)
        merge_duplicate_gates(base)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        if codec.combinations < 2:
            return
        value = (seed * 37) % codec.combinations
        copy = embed(base, catalog, codec.encode(value))
        nets = list(copy.circuit.inputs) + copy.circuit.gate_names()
        pirated = rename_nets(
            copy.circuit, {n: f"z{i}" for i, n in enumerate(nets)}, name="p"
        )
        result = extract_structural(pirated, base, catalog)
        assert codec.decode(result.assignment) == value

    @given(seeds)
    @SETTINGS
    def test_merge_duplicates_preserves_function(self, seed):
        from repro.netlist import has_duplicate_gates, merge_duplicate_gates

        base = small_circuit(seed, n_gates=45)
        deduped = base.clone("dedup")
        merge_duplicate_gates(deduped)
        # Only all-PO twin groups may remain (both port names must live).
        assert not has_duplicate_gates(deduped, ignore_output_twins=True)
        assert exhaustive_equivalent(base, deduped).equivalent

    @given(seeds)
    @SETTINGS
    def test_aig_roundtrip_preserves_function(self, seed):
        from repro.aig import aig_to_circuit, circuit_to_aig

        base = small_circuit(seed, n_gates=45)
        back = aig_to_circuit(circuit_to_aig(base), base.name)
        assert exhaustive_equivalent(base, back).equivalent


class TestLocationInvariants:
    """Admitted locations must embed to proven equivalents."""

    @given(seeds)
    @SETTINGS
    def test_confirmed_locations_survive_the_ladder(self, seed):
        """Every admitted location embeds to a proven equivalent.

        Definition 1 makes each location's (root, trigger,
        controlling-value) ODC condition hold by construction, so the
        full embedding must pass the verification ladder with a
        definitive verdict.
        """
        from repro.fingerprint import FinderOptions
        from repro.flows.ladder import run_ladder

        base = small_circuit(seed, n_gates=50)
        catalog = find_locations(base, FinderOptions())
        if not catalog.n_locations:
            return
        copy = embed(base, catalog, full_assignment(base, catalog))
        report = run_ladder(base, copy.circuit)
        assert report.equivalent and report.proven, report.reason
