"""Differential harness: the fast SAT pipeline must match the baseline.

The raw-speed program (preprocessing, learned-clause minimization, flat
watch lists, restarts) is only admissible because it is
*bit-identical in verdicts* to the pre-existing solver path.  This suite
enforces that:

* scratch CEC (`repro.sat.cec.check`): default pipeline (preprocessing +
  tuned solver) vs `simplify=False` + `LEGACY_CONFIG` on bundled designs,
  embedded fingerprint copies, and faultinject mutants (tier-1);
* incremental sessions: default construction vs legacy-configured,
  unsimplified sessions over the same copies (tier-1);
* every NOT_EQUIVALENT counterexample — which on the fast path crosses
  the preprocessor's model reconstruction — is replayed through the
  simulator and must actually distinguish the circuits;
* the bundled small benchmark suite plus k2 under the session engine,
  and the session's proof power on the larger designs at the copy-issue
  budget (``-m differential``, run in the dedicated CI job).
"""

from __future__ import annotations

import random

import pytest

from repro.bench import RandomLogicSpec, generate
from repro.bench.data import data_path
from repro.bench.suite import SMALL_SUITE, build_benchmark
from repro.budget import Budget
from repro.faultinject import GateKindSwap, StuckAtNet
from repro.fingerprint import FingerprintCodec, embed, find_locations, full_assignment
from repro.flows.batch import select_values
from repro.netlist import read_blif
from repro.sat import LEGACY_CONFIG, IncrementalCecSession
from repro.sat.cec import CecVerdict, check
from repro.sim.simulator import Simulator
from repro.techmap import map_network
from tests.test_sat_incremental import rare_difference


def small_circuit(seed, n_gates=80, n_inputs=12, n_outputs=4):
    return generate(
        RandomLogicSpec(
            name=f"satdiff{seed}",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_gates=n_gates,
            seed=seed,
        )
    )


def fingerprint_copy(base):
    catalog = find_locations(base)
    return embed(base, catalog, full_assignment(base, catalog)).circuit


def mutated_variants(base, n_variants, seed):
    rng = random.Random(seed)
    mutators = [GateKindSwap(), StuckAtNet()]
    variants = []
    for index in range(n_variants):
        mutant = base.clone(f"{base.name}_m{index}")
        try:
            rng.choice(mutators).apply(mutant, rng)
            mutant.validate()
        except Exception:
            continue
        variants.append(mutant)
    return variants


def assert_counterexample_distinguishes(left, right, counterexample, note):
    """A reconstructed SAT model must be a *real* witness."""
    assert counterexample is not None, note
    sim_l = Simulator(left).run_single(counterexample)
    sim_r = Simulator(right).run_single(counterexample)
    assert any(sim_l[out] != sim_r[out] for out in left.outputs), (
        f"counterexample does not distinguish the circuits {note}: "
        f"{counterexample}"
    )


def assert_scratch_identical(left, right, note=""):
    """The differential oracle for `cec.check`."""
    fast = check(left, right)
    baseline = check(left, right, simplify=False, solver_config=LEGACY_CONFIG)
    assert fast.verdict is baseline.verdict, (
        f"scratch verdict divergence {note}: "
        f"fast={fast.verdict} ({fast.reason}) "
        f"baseline={baseline.verdict} ({baseline.reason})"
    )
    if fast.verdict is CecVerdict.NOT_EQUIVALENT:
        assert_counterexample_distinguishes(
            left, right, fast.counterexample, f"(fast path {note})"
        )
        assert_counterexample_distinguishes(
            left, right, baseline.counterexample, f"(baseline {note})"
        )


def assert_session_identical(base, copies, note=""):
    """The differential oracle for `IncrementalCecSession`."""
    fast = IncrementalCecSession(base)
    baseline = IncrementalCecSession(
        base, solver_config=LEGACY_CONFIG, simplify_base=False
    )
    for index, copy in enumerate(copies):
        rf = fast.verify(copy)
        rb = baseline.verify(copy)
        assert rf.verdict is rb.verdict, (
            f"session verdict divergence {note} copy {index}: "
            f"fast={rf.verdict} ({rf.reason}) "
            f"baseline={rb.verdict} ({rb.reason})"
        )
        if rf.verdict is CecVerdict.NOT_EQUIVALENT:
            assert_counterexample_distinguishes(
                base, copy, rf.counterexample, f"(fast session {note})"
            )


class TestBundledC17:
    @pytest.fixture(scope="class")
    def c17(self):
        return map_network(read_blif(data_path("c17.blif")))

    def test_equivalent_copy(self, c17):
        assert_scratch_identical(c17, fingerprint_copy(c17), "(c17 copy)")

    def test_mutants(self, c17):
        for mutant in mutated_variants(c17, 6, seed=3):
            assert_scratch_identical(c17, mutant, "(c17 mutant)")

    def test_session_engine(self, c17):
        copies = [fingerprint_copy(c17)] + mutated_variants(c17, 3, seed=4)
        assert_session_identical(c17, copies, "(c17)")


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalent_copies(self, seed):
        base = small_circuit(seed)
        assert_scratch_identical(
            base, fingerprint_copy(base), f"(seed {seed})"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_mutants(self, seed):
        base = small_circuit(seed + 50)
        for mutant in mutated_variants(base, 2, seed=seed):
            assert_scratch_identical(base, mutant, f"(mutant seed {seed})")

    def test_session_engine(self):
        base = small_circuit(9, n_gates=120, n_inputs=14)
        copies = [fingerprint_copy(base)] + mutated_variants(base, 2, seed=9)
        assert_session_identical(base, copies, "(random)")


@pytest.mark.differential
@pytest.mark.timeout(900)
class TestBenchmarkSuite:
    """Scratch differential over the bundled small suite; session
    differential over k2 — the workload the 3x speedup gate measures.

    The per-test cap is raised because the *baseline* leg deliberately
    runs the slow pre-program pipeline (no preprocessing, legacy
    solver) on full scratch miters."""

    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_scratch_copy_and_mutant(self, name):
        base = build_benchmark(name)
        assert_scratch_identical(
            base, fingerprint_copy(base), f"(benchmark {name})"
        )
        for mutant in mutated_variants(base, 1, seed=1):
            assert_scratch_identical(base, mutant, f"({name} mutant)")

    def test_k2_session(self):
        base = build_benchmark("k2")
        copies = [fingerprint_copy(base)] + mutated_variants(base, 2, seed=2)
        assert_session_identical(base, copies, "(k2)")

    @pytest.mark.parametrize(
        "name", ["C1355", "C1908", "C3540", "C6288", "des", "i10", "k2"]
    )
    def test_session_proof_power(self, name):
        """At the copy-issue budget one session proves every fingerprint
        copy of the larger designs, and still refutes a copy whose output
        differs only when 15 inputs are all 1 — a difference its random
        simulation does not see.  The construction is the reference: a
        scratch miter of one k2 copy takes about 30 s."""
        base = build_benchmark(name)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        session = IncrementalCecSession(base)
        budget = Budget(max_conflicts=5000)
        copies = []
        for value in select_values(codec.combinations, 3, seed=0):
            copies.append(embed(base, catalog, codec.encode(value)).circuit)
            result = session.verify(copies[-1], budget=budget)
            assert result.verdict is CecVerdict.EQUIVALENT, (
                f"{name} copy {value}: {result.verdict} ({result.reason})"
            )
        mutant = rare_difference(copies[0], copies[0].outputs[0])
        result = session.verify(mutant, budget=budget)
        assert result.verdict is CecVerdict.NOT_EQUIVALENT, (
            f"{name} rare mutant: {result.verdict} ({result.reason})"
        )
        assert result.detail["points_refuted"] >= 1
        assert_counterexample_distinguishes(
            base, mutant, result.counterexample, f"({name} rare mutant)"
        )
