"""Unit tests for Definition-1 location finding."""

import pytest

from repro.netlist import Circuit
from repro.fingerprint import FinderOptions, find_locations
from repro.bench import build_benchmark


class TestFig1Location:
    def test_paper_motivating_example_found(self, fig1_circuit):
        catalog = find_locations(fig1_circuit)
        assert catalog.n_locations == 1
        (location,) = catalog.locations
        assert location.primary == "F"
        assert location.ffc_root in ("X", "Y")
        assert location.trigger in ("X", "Y")
        assert location.trigger != location.ffc_root
        assert location.trigger_value == 0  # AND controls at 0

    def test_root_choice_policy(self, fig1_circuit):
        # X and Y are both level 1; the name tie-break picks root Y for
        # highest_depth, with trigger X tapped forward (X < Y in the
        # level/name order).  The opposite root choice would need the
        # backward tap Y -> X, which the acyclicity discipline rejects,
        # so that policy finds no location on this circuit.
        catalog = find_locations(fig1_circuit, FinderOptions(root_choice="highest_depth"))
        assert catalog.n_locations == 1
        assert catalog.locations[0].ffc_root == "Y"
        assert catalog.locations[0].trigger == "X"
        catalog = find_locations(fig1_circuit, FinderOptions(root_choice="lowest_depth"))
        assert catalog.n_locations == 0


class TestCriteria:
    def test_no_location_without_ffc(self):
        """Criterion 2: shared nets disqualify a primary gate."""
        c = Circuit("shared")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_gate("g", "OR", ["y", "x"])  # y now fans out twice
        c.add_outputs(["f", "g"])
        assert find_locations(c).n_locations == 0

    def test_po_root_disqualified(self):
        c = Circuit("po")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_outputs(["f", "y"])  # y is observable directly
        assert find_locations(c).n_locations == 0

    def test_xor_primary_disqualified(self):
        """Criterion 4: the primary gate must create an ODC."""
        c = Circuit("xorp")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "XOR", ["y", "x"])
        c.add_output("f")
        assert find_locations(c).n_locations == 0

    def test_unmodifiable_ffc_disqualified(self):
        """Criterion 3: the FFC must contain a widenable gate."""
        c = Circuit("xorffc")
        c.add_inputs(["a", "b", "x"])
        c.add_gate("y", "XOR", ["a", "b"])  # XOR creates no ODC
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        assert find_locations(c).n_locations == 0
        # but with the XOR-target extension it becomes usable:
        opted = find_locations(c, FinderOptions(allow_xor_targets=True))
        assert opted.n_locations == 1

    def test_inverter_ffc_is_modifiable(self):
        c = Circuit("invffc")
        c.add_inputs(["a", "x"])
        c.add_gate("y", "INV", ["a"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        catalog = find_locations(c)
        assert catalog.n_locations == 1
        slot = catalog.locations[0].slots[0]
        assert slot.target == "y"
        assert {v.kind for v in slot.variants} == {"NAND", "NOR"}

    def test_const_trigger_disqualified(self):
        c = Circuit("constt")
        c.add_inputs(["a", "b"])
        c.add_gate("k", "CONST1", [])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "AND", ["y", "k"])
        c.add_output("f")
        assert find_locations(c).n_locations == 0

    def test_repeated_input_primary_skipped(self):
        c = Circuit("rep")
        c.add_inputs(["a", "b"])
        c.add_gate("y", "AND", ["a", "b"])
        c.add_gate("f", "AND", ["y", "y"])
        c.add_output("f")
        assert find_locations(c).n_locations == 0


class TestMultiSlotLocations:
    def test_nested_locations_share_targets_exclusively(self):
        # y = OR(m, c1) is itself a primary gate (root m, trigger c1), and
        # f = AND(y, x) sees the FFC {y, m}; m is claimed by the first
        # location so f's location only gets the y slot.
        c = Circuit("deep")
        c.add_inputs(["a", "b", "c1", "x"])
        c.add_gate("m", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["m", "c1"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        catalog = find_locations(c)
        assert catalog.n_locations == 2
        targets = {slot.target for slot in catalog.slots()}
        assert targets == {"m", "y"}

    def test_deep_ffc_offers_multiple_slots(self):
        # With an XOR in the middle, y never qualifies as a primary gate,
        # so f's single location offers both FFC gates as slots.
        c = Circuit("deep2")
        c.add_inputs(["a", "b", "c1", "x"])
        c.add_gate("m", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["m", "c1"])
        c.add_gate("mid", "XOR", ["y", "c1"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        # y fans out twice now -> disqualify y as root for f; rebuild with
        # a clean shape instead: primary NAND over an AND-only cone.
        c2 = Circuit("deep3")
        c2.add_inputs(["a", "b", "c1", "x"])
        c2.add_gate("m", "INV", ["a"])
        c2.add_gate("y", "XOR", ["m", "c1"])  # XOR: not a primary gate
        c2.add_gate("f", "AND", ["y", "x"])
        c2.add_output("f")
        catalog = find_locations(c2)
        assert catalog.n_locations == 1
        targets = {slot.target for slot in catalog.locations[0].slots}
        assert targets == {"m"}  # the inverter inside the FFC

    def test_slot_cap(self):
        c = Circuit("cap")
        c.add_inputs(["a", "b", "c1", "x"])
        c.add_gate("m", "AND", ["a", "b"])
        c.add_gate("y", "OR", ["m", "c1"])
        c.add_gate("f", "AND", ["y", "x"])
        c.add_output("f")
        catalog = find_locations(c, FinderOptions(max_slots_per_location=1))
        assert all(len(l.slots) <= 1 for l in catalog)

    @pytest.mark.parametrize("cap", [0, -1, -3])
    def test_slot_cap_below_one_rejected(self, cap):
        """A cap below 1 is an error, not a silent cap of 1."""
        with pytest.raises(ValueError, match="max_slots_per_location"):
            FinderOptions(max_slots_per_location=cap)

    def test_targets_unique_across_catalog(self):
        base = build_benchmark("C880")
        catalog = find_locations(base)
        targets = [slot.target for slot in catalog.slots()]
        assert len(targets) == len(set(targets))


class TestDeterminismAndPolicies:
    def test_deterministic(self):
        base = build_benchmark("C432")
        a = find_locations(base)
        b = find_locations(base)
        assert [l.primary for l in a] == [l.primary for l in b]
        assert [s.target for s in a.slots()] == [s.target for s in b.slots()]

    def test_trigger_policy_changes_choice(self):
        base = build_benchmark("C880")
        low = find_locations(base, FinderOptions(trigger_choice="lowest_depth"))
        high = find_locations(base, FinderOptions(trigger_choice="highest_depth"))
        levels = base.levels()
        # Compare trigger depths only at primaries both policies selected
        # (the level discipline filters variant-less locations differently).
        low_by_primary = {l.primary: l.trigger for l in low}
        high_by_primary = {l.primary: l.trigger for l in high}
        common = set(low_by_primary) & set(high_by_primary)
        assert common
        low_sum = sum(levels.get(low_by_primary[p], 0) for p in common)
        high_sum = sum(levels.get(high_by_primary[p], 0) for p in common)
        assert low_sum <= high_sum

    def test_random_policy_seeded(self):
        base = build_benchmark("C880")
        a = find_locations(base, FinderOptions(trigger_choice="random", seed=1))
        b = find_locations(base, FinderOptions(trigger_choice="random", seed=1))
        c = find_locations(base, FinderOptions(trigger_choice="random", seed=2))
        assert [l.trigger for l in a] == [l.trigger for l in b]
        assert [l.trigger for l in a] != [l.trigger for l in c]

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            FinderOptions(trigger_choice="bogus")
        with pytest.raises(ValueError):
            FinderOptions(root_choice="bogus")

    def test_catalog_queries(self, fig1_circuit):
        catalog = find_locations(fig1_circuit)
        assert len(catalog) == 1
        slot = catalog.slots()[0]
        assert catalog.slot_by_target(slot.target) is slot
        with pytest.raises(KeyError):
            catalog.slot_by_target("nope")
        assert catalog.locations[0].n_configurations == slot.n_configs


class TestCatalogSoundnessInvariants:
    """Invariants behind composition soundness (DESIGN.md §6)."""

    @pytest.mark.parametrize("name", ["C432", "C880", "C499", "dalu"])
    def test_forward_level_discipline(self, name):
        """Every variant's added edges run forward in (level, name)."""
        from repro.fingerprint.modifications import (
            inverter_index,
            realized_literal_key,
        )

        base = build_benchmark(name)
        catalog = find_locations(base)
        levels = base.levels()
        targets = frozenset(s.target for s in catalog.slots())
        inverters = inverter_index(base, excluded=targets)
        for slot in catalog.slots():
            target_key = (levels[slot.target], slot.target)
            for variant in slot.variants:
                for literal in variant.literals:
                    key = realized_literal_key(base, literal, inverters)
                    source = literal.net if key[0] == "inv" else key[1]
                    assert (levels.get(source, 0), source) < target_key

    @pytest.mark.parametrize("name", ["C432", "C880", "dalu"])
    def test_inverter_targets_never_alias_literals(self, name):
        """No variant's complemented literal source has an INV slot target,
        and no reused inverter is itself a target."""
        from repro.fingerprint.modifications import (
            inverter_index,
            realized_literal_key,
        )

        base = build_benchmark(name)
        catalog = find_locations(base)
        targets = {s.target for s in catalog.slots()}
        inv_target_sources = {
            base.gate(t).inputs[0]
            for t in targets
            if base.gate(t).kind == "INV"
        }
        inverters = inverter_index(base, excluded=frozenset(targets))
        for slot in catalog.slots():
            for variant in slot.variants:
                for literal in variant.literals:
                    if literal.positive:
                        continue
                    assert literal.net not in inv_target_sources, (
                        slot.target, literal
                    )
                    key = realized_literal_key(base, literal, inverters)
                    if key[0] == "net":
                        assert key[1] not in targets

    @pytest.mark.parametrize("name", ["C880", "k2"])
    def test_any_assignment_is_acyclic_and_equivalent(self, name):
        """Random points of the configuration space validate and verify."""
        import random

        from repro.fingerprint import FingerprintCodec, embed
        from repro.sim import check_equivalence

        base = build_benchmark(name)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(99)
        for _ in range(3):
            assignment = codec.random_assignment(rng)
            copy = embed(base, catalog, assignment)  # validates (acyclic)
            assert check_equivalence(
                base, copy.circuit, n_random_vectors=2048
            ).equivalent
