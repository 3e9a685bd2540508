"""Tests for the shared canonical hashing module (``repro.hashing``).

The load-bearing property is *compatibility*: the strash gate key must
behave exactly as the inline form the incremental CEC session used to
carry, and ``job_id_for`` must stay byte-identical to the historical
``campaign.spec`` convention so existing campaign databases keep joining
against re-expanded specs.
"""

from __future__ import annotations

import hashlib
import json

from repro import hashing
from repro.campaign.spec import job_id_for as spec_job_id_for
from repro.hashing import (
    COMMUTATIVE_KINDS,
    canonical_json,
    circuit_digest,
    content_digest,
    gate_key,
    job_id_for,
    options_digest,
)
from repro.netlist import Circuit


class TestGateKey:
    def test_commutative_kinds_sort_fanins(self):
        for kind in COMMUTATIVE_KINDS:
            assert gate_key(kind, [3, 1, 2]) == gate_key(kind, [2, 3, 1])
            assert gate_key(kind, [3, 1, 2]) == (kind, (1, 2, 3))

    def test_non_commutative_preserve_order(self):
        assert gate_key("MUX", [3, 1, 2]) == ("MUX", (3, 1, 2))
        assert gate_key("MUX", [3, 1, 2]) != gate_key("MUX", [1, 2, 3])

    def test_kind_distinguishes(self):
        assert gate_key("AND", [1, 2]) != gate_key("OR", [1, 2])

    def test_matches_incremental_session_key(self):
        """The session's strash key is this function (re-exported)."""
        from repro.sat.incremental import IncrementalCecSession

        assert IncrementalCecSession._key("NAND", (9, 4)) == gate_key(
            "NAND", (9, 4)
        )


class TestContentDigest:
    def test_byte_compatible_with_inline_sha1(self):
        parts = ("fingerprint", "bench:C432", '{"n_copies":8}', "3")
        expected = hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]
        assert content_digest(*parts) == expected

    def test_job_id_byte_compatible_with_campaign_convention(self):
        """Pin the exact historical ``campaign.spec.job_id_for`` bytes."""
        params = {"n_copies": 4, "trial": 1, "injector": None}
        legacy = hashlib.sha1(
            "|".join(
                (
                    "fingerprint",
                    "bench:C432",
                    json.dumps(params, sort_keys=True),
                    "7",
                )
            ).encode("utf-8")
        ).hexdigest()[:16]
        assert job_id_for("fingerprint", "bench:C432", params, 7) == legacy
        assert spec_job_id_for("fingerprint", "bench:C432", params, 7) == legacy

    def test_spec_delegates_here(self):
        params = {"a": 1}
        assert spec_job_id_for("verify", "d.blif", params, 0) == hashing.job_id_for(
            "verify", "d.blif", params, 0
        )


class TestOptionsDigest:
    def test_key_order_independent(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert options_digest({"a": 1}) != options_digest({"a": 2})

    def test_canonical_json_compact_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def _fig1(name: str = "fig1", order: str = "xy") -> Circuit:
    circuit = Circuit(name)
    circuit.add_inputs(["A", "B", "C", "D"])
    if order == "xy":
        circuit.add_gate("X", "AND", ["A", "B"])
        circuit.add_gate("Y", "OR", ["C", "D"])
    else:  # same gates, different insertion order
        circuit.add_gate("Y", "OR", ["C", "D"])
        circuit.add_gate("X", "AND", ["A", "B"])
    circuit.add_gate("F", "AND", ["X", "Y"])
    circuit.add_output("F")
    circuit.validate()
    return circuit


class TestCircuitDigest:
    def test_deterministic_and_equal_for_identical_builds(self):
        assert circuit_digest(_fig1()) == circuit_digest(_fig1())

    def test_gate_insertion_order_independent(self):
        assert circuit_digest(_fig1(order="xy")) == circuit_digest(
            _fig1(order="yx")
        )

    def test_name_sensitive(self):
        assert circuit_digest(_fig1("fig1")) != circuit_digest(_fig1("other"))

    def test_fanin_order_sensitive_even_for_commutative_gates(self):
        """CNF variable numbering follows declared fanin order, so the
        digest must *not* commutativity-sort (a swapped AND is a miss)."""
        left = _fig1()
        right = Circuit("fig1")
        right.add_inputs(["A", "B", "C", "D"])
        right.add_gate("X", "AND", ["B", "A"])
        right.add_gate("Y", "OR", ["C", "D"])
        right.add_gate("F", "AND", ["X", "Y"])
        right.add_output("F")
        assert circuit_digest(left) != circuit_digest(right)

    def test_structure_sensitive(self):
        left = _fig1()
        right = _fig1()
        right.add_gate("G", "INV", ["F"])
        right.add_output("G")
        assert circuit_digest(left) != circuit_digest(right)

    def test_cached_and_invalidated_by_mutation(self):
        circuit = _fig1()
        first = circuit_digest(circuit)
        assert circuit_digest(circuit) == first  # dict hit, same value
        circuit.add_gate("G", "INV", ["F"])
        circuit.add_output("G")
        assert circuit_digest(circuit) != first  # mutation invalidates

    def test_sixty_four_hex_chars(self):
        digest = circuit_digest(_fig1())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex
