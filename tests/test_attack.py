"""Tier-1 tests for the adversarial attack suite (:mod:`repro.attack`)."""

from __future__ import annotations

import json

import pytest

from repro.attack import (
    ATTACK_NAMES,
    AttackConfig,
    AttackError,
    CollusionAttack,
    RenameAttack,
    ResubstitutionEngine,
    RewriteAttack,
    build_context,
    reorder_ports,
    run_attack,
    run_attack_suite,
)
from repro.bench.data import data_path
from repro.fingerprint import embed, extract, find_locations
from repro.netlist import Circuit, read_blif, write_blif
from repro.netlist.transform import merge_duplicate_gates
from repro.sat import CecVerdict, check
from repro.sim import exhaustive_equivalent
from repro.techmap import map_network

pytestmark = pytest.mark.attack


@pytest.fixture(scope="module")
def c17() -> Circuit:
    return map_network(read_blif(data_path("c17.blif")))


@pytest.fixture(scope="module")
def fingerprinted_c17(c17):
    """c17 with every slot forced to a nonzero configuration."""
    base = c17.clone("c17")
    merge_duplicate_gates(base)
    catalog = find_locations(base)
    assignment = {slot.target: 1 for slot in catalog.slots()}
    victim = embed(base, catalog, assignment, name="c17_fp").circuit
    return base, catalog, assignment, victim


QUICK = AttackConfig(seed=2015, n_vectors=64, max_passes=4)


class TestMutateHelpers:
    """The deduplicated helpers keep the historical RNG/name contracts."""

    def test_pick_gate_consumes_one_randrange(self, c17):
        import random

        from repro.mutate import pick_gate

        a, b = random.Random(7), random.Random(7)
        gate = pick_gate(c17, a)
        candidates = list(c17.gates)
        assert gate is candidates[b.randrange(len(candidates))]
        assert a.random() == b.random()  # streams still aligned

    def test_pick_gate_kind_filter(self, c17):
        import random

        from repro.mutate import pick_gate

        gate = pick_gate(c17, random.Random(0), kinds=["INV"])
        assert gate is not None and gate.kind == "INV"
        assert pick_gate(c17, random.Random(0), kinds=["XOR"]) is None

    def test_fresh_net_name_probes_from_zero(self, fig1_circuit):
        from repro.mutate import fresh_net_name

        assert fresh_net_name(fig1_circuit, "__ghost") == "__ghost0"
        fig1_circuit.add_gate("__ghost0", "BUF", ["A"])
        assert fresh_net_name(fig1_circuit, "__ghost") == "__ghost1"

    def test_faultinject_reuses_shared_swaps(self):
        from repro.faultinject import mutators
        from repro.mutate import KIND_SWAPS

        assert mutators._KIND_SWAPS is KIND_SWAPS


class TestResubEngine:
    def test_strips_forced_fingerprint(self, fingerprinted_c17):
        base, catalog, _assignment, victim = fingerprinted_c17
        attacked = victim.clone("c17_attacked")
        stats = ResubstitutionEngine(attacked, QUICK).run()
        assert stats.literals_dropped >= 1
        assert check(victim, attacked).verdict is CecVerdict.EQUIVALENT
        extraction = extract(attacked, base, catalog)
        assert all(v == 0 for v in extraction.assignment.values())

    def test_local_proof_path(self):
        """Window SAT drops a duplicated gate input."""
        circuit = Circuit("dup")
        circuit.add_inputs(["A", "B"])
        circuit.add_gate("G", "AND", ["A", "A"])
        circuit.add_gate("F", "OR", ["G", "B"])
        circuit.add_output("F")
        circuit.validate()
        reference = circuit.clone("dup_ref")
        stats = ResubstitutionEngine(circuit, QUICK).run()
        assert stats.window_sat_proved == 1
        assert stats.literals_dropped == 1
        assert exhaustive_equivalent(reference, circuit).equivalent

    def test_const_and_merge_pass(self):
        """x AND x' folds to constant; duplicate logic merges."""
        circuit = Circuit("cm")
        circuit.add_inputs(["A", "B"])
        circuit.add_gate("nA", "INV", ["A"])
        circuit.add_gate("Z", "AND", ["A", "nA"])  # constant 0
        circuit.add_gate("P", "AND", ["A", "B"])
        circuit.add_gate("Q", "NAND", ["A", "B"])  # complement of P
        circuit.add_gate("F", "OR", ["Z", "P"])
        circuit.add_gate("G", "AND", ["Q", "B"])
        circuit.add_outputs(["F", "G"])
        circuit.validate()
        reference = circuit.clone("cm_ref")
        stats = ResubstitutionEngine(circuit, QUICK).run()
        assert stats.constants_folded >= 1
        assert stats.nets_merged >= 1
        assert exhaustive_equivalent(reference, circuit).equivalent

    def test_deterministic(self, fingerprinted_c17):
        _base, _catalog, _assignment, victim = fingerprinted_c17
        first = victim.clone("r1")
        second = victim.clone("r2")
        stats1 = ResubstitutionEngine(first, QUICK).run()
        stats2 = ResubstitutionEngine(second, QUICK).run()
        assert stats1.as_dict() == stats2.as_dict()
        first.name = second.name = "same"
        assert write_blif(first) == write_blif(second)


class TestStructuralAttacks:
    def test_reorder_ports_roundtrip(self, c17):
        permuted = reorder_ports(
            c17, list(reversed(c17.inputs)), list(c17.outputs)
        )
        assert permuted.inputs == list(reversed(c17.inputs))
        assert exhaustive_equivalent(c17, permuted).equivalent

    def test_reorder_ports_rejects_non_permutation(self, c17):
        with pytest.raises(ValueError):
            reorder_ports(c17, c17.inputs[:-1], c17.outputs)

    def test_rename_preserves_structure(self, c17):
        ctx = build_context(c17, QUICK)
        attacked = RenameAttack().run(ctx)
        assert attacked.renamed and not attacked.remapped
        assert set(attacked.circuit.inputs).isdisjoint(ctx.victim_copy.inputs)
        assert attacked.inverse_rename is not None
        restored = {
            attacked.inverse_rename[n] for n in attacked.circuit.inputs
        }
        assert restored == set(ctx.victim_copy.inputs)

    def test_rewrite_preserves_function(self, c17):
        ctx = build_context(c17, QUICK)
        attacked = RewriteAttack().run(ctx)
        assert attacked.edits >= 1
        assert exhaustive_equivalent(ctx.victim_copy, attacked.circuit).equivalent


class TestSuite:
    @pytest.fixture(scope="class")
    def report(self, c17):
        return run_attack_suite(c17, config=QUICK)

    def test_full_roster_runs_equivalent(self, report):
        assert [o.attack for o in report.outcomes] == list(ATTACK_NAMES)
        assert report.all_equivalent
        assert not report.skipped

    def test_renaming_attacks_do_not_dislodge(self, report):
        for name in ("rename", "remap"):
            outcome = report.outcome(name)
            assert outcome.bits_surviving == outcome.bits_total
            assert outcome.value_recovered
            assert outcome.tampered == 0

    def test_victim_traced_on_non_collusion_attacks(self, report):
        for outcome in report.outcomes:
            if outcome.attack == "collusion":
                continue
            assert outcome.traced_cleanly, outcome.attack

    def test_survival_matrix_shape(self, report):
        survival = report.survival()
        assert set(survival) == set(ATTACK_NAMES)
        assert all(0.0 <= v <= 1.0 for v in survival.values())

    def test_as_dict_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["design"] == "c17"
        assert payload["all_equivalent"] is True
        assert len(payload["outcomes"]) == len(ATTACK_NAMES)

    def test_unknown_attack_rejected(self, c17):
        with pytest.raises(AttackError, match="unknown attack"):
            run_attack_suite(c17, attacks=["resub", "nope"], config=QUICK)

    def test_deterministic_under_seed(self, c17, report):
        again = run_attack_suite(c17, config=QUICK)

        def strip(d):
            if isinstance(d, dict):
                return {k: strip(v) for k, v in d.items() if k != "seconds"}
            if isinstance(d, list):
                return [strip(v) for v in d]
            return d

        assert strip(again.as_dict()) == strip(report.as_dict())


class TestCollusion:
    def test_pirate_equivalent_and_scored(self, c17):
        ctx = build_context(c17, QUICK)
        outcome = run_attack(CollusionAttack(), ctx)
        assert outcome.equivalent
        assert outcome.details["strategy"] == "strip"
        assert len(outcome.details["colluders"]) >= 2

    def test_no_innocent_accused(self, c17):
        ctx = build_context(c17, QUICK)
        outcome = run_attack(CollusionAttack(), ctx)
        guilty = {r.buyer for r in ctx.colluder_records}
        assert set(outcome.accused) <= guilty


class TestConfig:
    def test_validation(self):
        with pytest.raises(AttackError):
            AttackConfig(n_vectors=100)  # not a multiple of 64
        with pytest.raises(AttackError):
            AttackConfig(max_passes=0)
        with pytest.raises(AttackError):
            AttackConfig(rewrite_fraction=0.0)
        with pytest.raises(AttackError):
            AttackConfig(colluders=1)
        with pytest.raises(AttackError):
            AttackConfig(collusion_strategy="merge")

    def test_no_locations_rejected(self):
        with pytest.raises(AttackError, match="no fingerprint locations"):
            run_attack_suite(_empty_slot_circuit(), config=QUICK)


def _empty_slot_circuit() -> Circuit:
    circuit = Circuit("nofp")
    circuit.add_inputs(["A", "B"])
    circuit.add_gate("F", "AND", ["A", "B"])
    circuit.add_output("F")
    circuit.validate()
    return circuit


class TestApi:
    def test_api_attack_facade(self, c17):
        from repro import api

        report = api.attack(c17, attacks=["sweep", "rename"], seed=11)
        assert report.all_equivalent
        assert [o.attack for o in report.outcomes] == ["sweep", "rename"]


class TestCli:
    def test_attack_subcommand_envelope(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "attack.json"
        code = main([
            "attack", data_path("c17.blif"),
            "--attacks", "sweep,rename",
            "--vectors", "64",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fingerprint bits" in captured
        envelope = json.loads(out.read_text())
        assert envelope["command"] == "attack"
        assert envelope["tool"] == "repro-fp"
        result = envelope["result"]
        assert result["all_equivalent"] is True
        assert [o["attack"] for o in result["outcomes"]] == [
            "sweep", "rename",
        ]

    def test_attack_rejects_unknown_name(self, capsys):
        from repro.cli import main

        code = main([
            "attack", data_path("c17.blif"), "--attacks", "bogus",
        ])
        assert code == 3
        assert "unknown attack" in capsys.readouterr().err
