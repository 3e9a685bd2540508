"""Fault injection: every mutator on three seed circuits, plus the golden
guarantee that ``Circuit.validate()`` rejects each structural corruption."""

from __future__ import annotations

import random

import pytest

from repro.errors import FaultInjectionError, ReproError
from repro.faultinject import (
    ALL_CORRUPTORS,
    ALL_MUTATORS,
    CombinationalCycle,
    DanglingWire,
    DuplicateDriver,
    GateKindSwap,
    Outcome,
    StuckAtNet,
    functional_mutators,
    run_netlist_campaign,
    run_text_campaign,
    structural_mutators,
)
from repro.flows import run_ladder
from repro.netlist import Circuit, NetlistError, write_blif, write_verilog
from repro.netlist.blif import parse_blif
from repro.netlist.verilog import parse_verilog


@pytest.fixture(scope="module")
def seed_circuits():
    """Three seeds of different shape: tiny, arithmetic, random logic."""
    from repro.bench import RandomLogicSpec, generate
    from repro.netlist import CircuitBuilder

    fig1 = Circuit("fig1")
    fig1.add_inputs(["A", "B", "C", "D"])
    fig1.add_gate("X", "AND", ["A", "B"])
    fig1.add_gate("Y", "OR", ["C", "D"])
    fig1.add_gate("F", "AND", ["X", "Y"])
    fig1.add_output("F")

    builder = CircuitBuilder("adder4")
    a = builder.inputs("a", 4)
    b = builder.inputs("b", 4)
    cin = builder.input("cin")
    sums, carry = builder.ripple_adder(a, b, cin)
    builder.outputs([f"s{i}" for i in range(4)] + ["cout"])
    for i, net in enumerate(sums):
        builder.circuit.add_gate(f"s{i}", "BUF", [net])
    builder.circuit.add_gate("cout", "BUF", [carry])
    adder = builder.done()

    rand = generate(
        RandomLogicSpec(name="rand60", n_inputs=8, n_outputs=4,
                        n_gates=60, seed=3)
    )
    return [fig1, adder, rand]


# --------------------------------------------------------------------- #
# mutator inventory
# --------------------------------------------------------------------- #


def test_mutator_inventory():
    assert len(ALL_MUTATORS) == 5
    assert {m.name for m in structural_mutators()} == {
        "DanglingWire", "DuplicateDriver", "CombinationalCycle"
    }
    assert {m.name for m in functional_mutators()} == {
        "StuckAtNet", "GateKindSwap"
    }


@pytest.mark.parametrize("mutator", ALL_MUTATORS, ids=lambda m: m.name)
def test_fault_records_its_own_shape(mutator, seed_circuits):
    rng = random.Random(1)
    mutant = seed_circuits[2].clone("shape_probe")
    fault = mutator.apply(mutant, rng)
    assert fault.mutator == mutator.name
    assert fault.structural == mutator.structural
    assert fault.description


# --------------------------------------------------------------------- #
# the campaign: every mutator x three seeds
# --------------------------------------------------------------------- #


def test_campaign_is_clean_on_all_seeds(seed_circuits):
    report = run_netlist_campaign(seed_circuits, trials=2, seed=42)
    assert report.records, "campaign ran nothing"
    assert report.clean, report.summary()
    assert not report.violations()
    # every mutator actually fired on every seed
    fired = {(r.design, r.injector) for r in report.records}
    assert len(fired) == len(seed_circuits) * len(ALL_MUTATORS)


def test_structural_faults_fail_typed(seed_circuits):
    """Structural corruption must be *rejected* (typed), never processed."""
    report = run_netlist_campaign(
        seed_circuits, mutators=structural_mutators(), trials=2, seed=7
    )
    assert report.clean, report.summary()
    for record in report.records:
        assert record.outcome in (Outcome.TYPED_ERROR, Outcome.SKIPPED)
        if record.outcome is Outcome.TYPED_ERROR:
            assert record.error_message
            assert record.diagnostic


def test_functional_faults_flow_through(seed_circuits):
    """Functional faults keep the netlist valid: the flow completes."""
    report = run_netlist_campaign(
        seed_circuits, mutators=functional_mutators(), trials=2, seed=7
    )
    assert report.clean, report.summary()
    for record in report.records:
        assert record.outcome in (Outcome.VALID, Outcome.SKIPPED)


@pytest.mark.parametrize("mutator", functional_mutators(), ids=lambda m: m.name)
def test_functional_fault_is_caught_by_verification(mutator, seed_circuits):
    """Against the *original* seed, the ladder must flag the mutant —
    with a proof, since fig1 is exhaustively simulable."""
    fig1 = seed_circuits[0]
    mutant = fig1.clone("functional_mutant")
    mutator.apply(mutant, random.Random(0))
    mutant.validate()  # functional faults leave the structure legal
    report = run_ladder(fig1, mutant)
    assert not report.equivalent
    assert report.proven


def test_campaign_summary_and_histograms(seed_circuits):
    report = run_netlist_campaign(seed_circuits[:1], trials=1, seed=0)
    counts = report.counts()
    assert sum(counts.values()) == len(report.records)
    assert set(report.by_injector()) <= {m.name for m in ALL_MUTATORS}
    assert "verdict: CLEAN" in report.summary()


# --------------------------------------------------------------------- #
# golden tests: validate() catches each structural corruption kind
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "mutator", structural_mutators(), ids=lambda m: m.name
)
@pytest.mark.parametrize("trial", range(3))
def test_validate_catches_injected_structural_fault(
    mutator, trial, seed_circuits
):
    mutant = seed_circuits[2].clone(f"golden_{mutator.name}_{trial}")
    try:
        mutator.apply(mutant, random.Random(trial))
    except FaultInjectionError:
        pytest.skip("mutator inapplicable to this seed/trial")
    with pytest.raises(NetlistError) as excinfo:
        mutant.validate()
    assert isinstance(excinfo.value, ReproError)
    assert str(excinfo.value)


def test_validate_catches_undriven_net(fig1_circuit):
    broken = fig1_circuit.clone("undriven")
    DanglingWire().apply(broken, random.Random(0))
    with pytest.raises(NetlistError, match="driver|driven|undriven"):
        broken.validate()


def test_validate_catches_duplicate_driver(fig1_circuit):
    broken = fig1_circuit.clone("dupdrv")
    DuplicateDriver().apply(broken, random.Random(0))
    with pytest.raises(NetlistError):
        broken.validate()


def test_validate_catches_combinational_cycle(fig1_circuit):
    broken = fig1_circuit.clone("cycle")
    CombinationalCycle().apply(broken, random.Random(0))
    with pytest.raises(NetlistError, match="cycle|cyclic|loop|topolog"):
        broken.validate()


# --------------------------------------------------------------------- #
# text corruptors against both parsers
# --------------------------------------------------------------------- #


def test_corruptor_inventory():
    assert len(ALL_CORRUPTORS) == 5


def test_verilog_text_campaign_is_clean(seed_circuits):
    documents = {c.name: write_verilog(c) for c in seed_circuits}
    report = run_text_campaign(documents, parser=parse_verilog,
                               trials=3, seed=9)
    assert report.records
    assert report.clean, report.summary()


def test_blif_text_campaign_is_clean(seed_circuits):
    documents = {c.name: write_blif(c) for c in seed_circuits}
    report = run_text_campaign(documents, parser=parse_blif,
                               trials=3, seed=9)
    assert report.records
    assert report.clean, report.summary()


def test_corruptors_refuse_empty_text():
    for corruptor in ALL_CORRUPTORS:
        with pytest.raises(FaultInjectionError):
            corruptor.apply("   \n ", random.Random(0))
