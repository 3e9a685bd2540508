"""Unit tests for the fingerprint modification catalogue (Figs. 4 & 5)."""

import inspect
import typing

from repro.cells import GENERIC_LIB
from repro.netlist import Circuit
from repro.fingerprint import Literal, Variant, direct_variants, modifications, reroute_variants, slot_variants
from repro.sim import exhaustive_equivalent


def apply_variant(circuit: Circuit, target: str, variant: Variant) -> Circuit:
    """Manually apply a variant (fresh inverters for negative literals)."""
    modified = circuit.clone(circuit.name + "_mod")
    extra = []
    for index, literal in enumerate(variant.literals):
        if literal.positive:
            extra.append(literal.net)
        else:
            inv = f"tinv{index}"
            modified.add_gate(inv, "INV", [literal.net])
            extra.append(inv)
    original = modified.gate(target)
    modified.replace_gate(target, variant.kind, list(original.inputs) + extra)
    modified.validate()
    return modified


class TestDirectVariants:
    def test_and_primary_and_target(self, fig1_circuit):
        """Fig. 1 scenario: AND primary (c=0), AND target, literal = Y."""
        target = fig1_circuit.gate("X")
        variants = direct_variants(target, "Y", 0, GENERIC_LIB)
        assert len(variants) == 1
        (variant,) = variants
        assert variant.kind == "AND"
        # X != 0 (non-controlling) must leave AND unchanged -> literal
        # value must be the AND identity 1 -> plain polarity.
        assert variant.literals == (Literal("Y", True),)

    def test_or_primary_and_target_inverts(self):
        c = Circuit("orp")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "OR", ["y", "x"])
        c.add_output("f")
        variants = direct_variants(c.gate("y"), "x", 1, GENERIC_LIB)
        (variant,) = variants
        # OR primary controls at 1; when x = 0 the AND target must see its
        # identity (1) -> complemented literal.
        assert variant.literals == (Literal("x", False),)

    def test_or_target_polarity(self):
        c = Circuit("ort")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "OR", ["a", "b"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        (variant,) = direct_variants(c.gate("y"), "x", 0, GENERIC_LIB)
        # AND primary: preserve when x = 1; OR identity is 0 -> complement.
        assert variant.literals == (Literal("x", False),)

    def test_inverter_target_offers_nand_and_nor(self, deep_chain):
        # n2 = INV(n1) feeds n3 = OR(n2, s1): primary OR controls at 1.
        target = deep_chain.gate("n2")
        variants = direct_variants(target, "s1", 1, GENERIC_LIB)
        kinds = {v.kind for v in variants}
        assert kinds == {"NAND", "NOR"}
        by_kind = {v.kind: v for v in variants}
        # preserve when s1 = 0: NAND needs literal 1 -> complement of s1.
        assert by_kind["NAND"].literals == (Literal("s1", False),)
        assert by_kind["NOR"].literals == (Literal("s1", True),)

    def test_xor_target_requires_opt_in(self, parity8):
        gate = next(g for g in parity8.gates if g.kind == "XOR")
        assert direct_variants(gate, parity8.inputs[7], 0, GENERIC_LIB) == []
        opted = direct_variants(
            gate, parity8.inputs[7], 0, GENERIC_LIB, allow_xor_targets=True
        )
        # Only valid if the tapped input is not already a gate input.
        if parity8.inputs[7] not in gate.inputs:
            assert len(opted) == 1

    def test_max_arity_infeasible(self):
        c = Circuit("wide")
        c.add_inputs([f"i{k}" for k in range(5)] + ["x"])
        c.add_gate("y", "AND", [f"i{k}" for k in range(5)])  # AND5 = max arity
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        assert direct_variants(c.gate("y"), "x", 0, GENERIC_LIB) == []

    def test_literal_already_present_skipped(self):
        c = Circuit("dup")
        c.add_inputs(["a", "x"])
        c.add_gate("y", "AND", ["a", "x"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        assert direct_variants(c.gate("y"), "x", 0, GENERIC_LIB) == []


class TestRerouteVariants:
    def _fig5(self):
        """Paper Fig. 5: two ANDs in series, OR inside the FFC."""
        c = Circuit("fig5")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("x", "AND", ["a", "b"])       # trigger gate T
        c.add_gate("y", "OR", ["c1", "c2"])      # FFC gate to modify
        c.add_gate("f", "AND", ["y", "x"])       # primary gate
        c.add_output("f")
        return c

    def test_fig5_reroute_taps_trigger_inputs(self):
        c = self._fig5()
        variants = reroute_variants(c, c.gate("y"), "x", 0, GENERIC_LIB)
        single = [v for v in variants if len(v.literals) == 1]
        pairs = [v for v in variants if len(v.literals) == 2]
        # n = 2 trigger-gate inputs -> 2 singles + 1 pair = n(n+1)/2 = 3.
        assert len(single) == 2 and len(pairs) == 1
        # AND trigger gate: in the must-preserve case inputs are 1; OR
        # identity is 0 -> inverted literals (paper: "A or B are simply
        # inverted and directed into the OR gate").
        assert all(not l.positive for v in variants for l in v.literals)
        tapped = {l.net for v in single for l in v.literals}
        assert tapped == {"a", "b"}

    def test_fig5_all_variants_preserve_function(self):
        c = self._fig5()
        variants = slot_variants(c, c.gate("y"), "x", 0)
        assert variants
        for variant in variants:
            modified = apply_variant(c, "y", variant)
            assert exhaustive_equivalent(c, modified).equivalent, variant

    def test_trigger_must_match_controlled_output(self):
        # NOR primary controls at 1 but AND trigger gate outputs 0 when
        # controlled -> reroute must be refused.
        c = Circuit("mismatch")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("x", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["c1", "c2"])
        c.add_gate("f", "NOR", ["y", "x"])
        c.add_output("f")
        assert reroute_variants(c, c.gate("y"), "x", 1, GENERIC_LIB) == []

    def test_nand_trigger_into_nor_primary(self):
        # NOR primary (c=1); NAND trigger gate controls to 1 -> allowed.
        c = Circuit("nand_t")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("x", "NAND", ["a", "b"])
        c.add_gate("y", "OR", ["c1", "c2"])
        c.add_gate("f", "NOR", ["y", "x"])
        c.add_output("f")
        variants = reroute_variants(c, c.gate("y"), "x", 1, GENERIC_LIB)
        assert variants
        for variant in variants:
            modified = apply_variant(c, "y", variant)
            assert exhaustive_equivalent(c, modified).equivalent, variant

    def test_inverter_trigger_chain(self):
        c = Circuit("invt")
        c.add_inputs(["w", "c1", "c2"])
        c.add_gate("x", "INV", ["w"])
        c.add_gate("y", "OR", ["c1", "c2"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        variants = reroute_variants(c, c.gate("y"), "x", 0, GENERIC_LIB)
        assert len(variants) == 1
        modified = apply_variant(c, "y", variants[0])
        assert exhaustive_equivalent(c, modified).equivalent

    def test_pi_trigger_has_no_reroute(self, fig1_circuit):
        # In fig1 the trigger Y is gate-driven, but A is a PI.
        target = fig1_circuit.gate("X")
        assert reroute_variants(fig1_circuit, target, "A", 0, GENERIC_LIB) == []


class TestSlotVariants:
    def test_deduplication_and_union(self):
        # y sits a level above x so the direct tap satisfies the forward
        # level discipline (x at level 1, y at level 2).
        c = Circuit("u")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("x", "AND", ["a", "b"])
        c.add_gate("m", "INV", ["c1"])
        c.add_gate("y", "OR", ["m", "c2"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        all_variants = slot_variants(c, c.gate("y"), "x", 0)
        signatures = [v.signature() for v in all_variants]
        assert len(signatures) == len(set(signatures))
        sources = {v.source for v in all_variants}
        assert "direct" in sources and "reroute1" in sources

    def test_level_discipline_blocks_backward_taps(self):
        # Added edges must run forward in the (level, name) total order.
        # Trigger "z" and target "y" sit at the same level and "z" > "y",
        # so the direct z -> y tap is rejected (two such backward taps can
        # jointly close a combinational loop); the reverse direction
        # ("x" < "y") stays allowed.
        c = Circuit("lvl")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("z", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["c1", "c2"])
        c.add_gate("f", "AND", ["y", "z"])
        c.add_output("f")
        direct_only = [
            v for v in slot_variants(c, c.gate("y"), "z", 0)
            if v.source == "direct"
        ]
        assert direct_only == []
        # Same shape, but the trigger name orders before the target name.
        c2 = Circuit("lvl2")
        c2.add_inputs(["a", "b", "c1", "c2"])
        c2.add_gate("x", "AND", ["a", "b"])
        c2.add_gate("y", "OR", ["c1", "c2"])
        c2.add_gate("f", "AND", ["y", "x"])
        c2.add_output("f")
        allowed = [
            v for v in slot_variants(c2, c2.gate("y"), "x", 0)
            if v.source == "direct"
        ]
        assert len(allowed) == 1

    def test_reroute_disabled(self):
        c = Circuit("u2")
        c.add_inputs(["a", "b", "c1", "c2"])
        c.add_gate("x", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["c1", "c2"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        only_direct = slot_variants(c, c.gate("y"), "x", 0, enable_reroute=False)
        assert all(v.source == "direct" for v in only_direct)

    def test_every_variant_is_equivalent_exhaustively(self, fig1_circuit):
        target = fig1_circuit.gate("X")
        for variant in slot_variants(fig1_circuit, target, "Y", 0):
            modified = apply_variant(fig1_circuit, "X", variant)
            assert exhaustive_equivalent(fig1_circuit, modified).equivalent, variant


def test_every_annotation_resolves():
    # ``from __future__ import annotations`` leaves annotations as strings,
    # so a name missing from the imports only shows when they are resolved.
    functions = [
        obj
        for obj in vars(modifications).values()
        if inspect.isfunction(obj) and obj.__module__ == modifications.__name__
    ]
    assert len(functions) >= 8
    for function in functions:
        typing.get_type_hints(function)
