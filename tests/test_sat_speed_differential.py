"""Differential harness: the production SAT engine must match a reference.

Every verdict comes from one engine, the CEC session; this suite checks
it against references that share none of its sweep, simulation or
structural hashing, on the pairs of
``tests/golden/make_sat_verdict_pin.py``:

* scratch cases: :func:`repro.sat.check` (a one-copy session) vs the raw
  reference miter (:func:`tests.miter_reference.miter_check`) on bundled
  designs, embedded fingerprint copies, and faultinject mutants
  (tier-1);
* incremental sessions over the same copies (tier-1), run once: a
  session has one construction, so it has one leg;
* every leg must give the verdict ``tests/golden/sat_verdict_pin.json``
  recorded for the pair (by the legacy solver on raw miters, before
  version 6.0.0 deleted it), and a pair of at most
  ``MAX_EXHAUSTIVE_INPUTS`` inputs must get that verdict from exhaustive
  simulation too, which shares no code with the solver;
* every NOT_EQUIVALENT counterexample is replayed through the simulator
  and must actually distinguish the circuits;
* the bundled small benchmark suite plus k2 under the session engine,
  and the session's proof power on the larger designs at the copy-issue
  budget (``-m differential``, run in the dedicated CI job).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.suite import SMALL_SUITE, build_benchmark
from repro.budget import Budget
from repro.fingerprint import FingerprintCodec, embed, find_locations
from repro.flows.batch import select_values
from repro.sat import IncrementalCecSession
from repro.sat.cec import CecVerdict
from repro.sim.equivalence import exhaustive_equivalent
from repro.sim.simulator import Simulator
from repro.sim.vectors import MAX_EXHAUSTIVE_INPUTS
from tests.golden.make_sat_verdict_pin import OUT, build_case, cases, digest, results
from tests.test_sat_incremental import rare_difference

with open(OUT) as _handle:
    PIN = json.load(_handle)["cases"]


def assert_counterexample_distinguishes(left, right, counterexample, note):
    """A counterexample must be a *real* witness."""
    assert counterexample is not None, note
    sim_l = Simulator(left).run_single(counterexample)
    sim_r = Simulator(right).run_single(counterexample)
    assert any(sim_l[out] != sim_r[out] for out in left.outputs), (
        f"counterexample does not distinguish the circuits {note}: "
        f"{counterexample}"
    )


def assert_case_identical(name):
    """The differential oracle for one case of the verdict pin."""
    engine, base, others = build_case(name)
    record = PIN[name]
    assert record["engine"] == engine, name
    assert [record["base"]] + [d for d, _ in record["pairs"]] == [
        digest(c) for c in [base] + others
    ], f"{name}: the pairs differ from the pinned ones"
    exhaustive = len(base.inputs) <= MAX_EXHAUSTIVE_INPUTS
    production = results(engine, base, others, reference=False)
    # A session has one construction: its leg is its own baseline.
    baseline = production if engine == "session" else results(engine, base, others, reference=True)
    for index, other in enumerate(others):
        note = f"({name} pair {index})"
        rf, rb = production[index], baseline[index]
        pinned = record["pairs"][index][1]
        assert rf.verdict.value == rb.verdict.value == pinned, (
            f"verdict divergence {note}: pin={pinned} "
            f"production={rf.verdict} ({rf.reason}) "
            f"baseline={rb.verdict} ({rb.reason})"
        )
        if exhaustive:
            assert exhaustive_equivalent(base, other).equivalent == (
                rf.verdict is CecVerdict.EQUIVALENT
            ), f"exhaustive simulation disagrees {note}"
        if rf.verdict is CecVerdict.NOT_EQUIVALENT:
            assert_counterexample_distinguishes(
                base, other, rf.counterexample, f"(production {note})"
            )
            assert_counterexample_distinguishes(
                base, other, rb.counterexample, f"(baseline {note})"
            )


def test_pin_matches_the_case_table():
    table = cases()
    assert sorted(PIN) == sorted(table)
    for name, (tier1, _, _) in table.items():
        assert PIN[name]["tier1"] == tier1, name


class TestBundledC17:
    def test_equivalent_copy(self):
        assert_case_identical("c17-copy")

    def test_mutants(self):
        assert_case_identical("c17-mutants")

    def test_session_engine(self):
        assert_case_identical("c17-session")


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalent_copies(self, seed):
        assert_case_identical(f"random-copy-{seed}")

    @pytest.mark.parametrize("seed", range(3))
    def test_mutants(self, seed):
        assert_case_identical(f"random-mutants-{seed}")

    def test_session_engine(self):
        assert_case_identical("random-session")


@pytest.mark.differential
@pytest.mark.timeout(900)
class TestBenchmarkSuite:
    """Scratch differential over the bundled small suite; session
    differential over k2, the design ``bench_sat_profile.py`` profiles.

    The per-test cap is raised because the *baseline* leg deliberately
    solves full raw miters."""

    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_scratch_copy_and_mutant(self, name):
        assert_case_identical(f"{name}-scratch")

    def test_k2_session(self):
        assert_case_identical("k2-session")

    @pytest.mark.parametrize(
        "name", ["C1355", "C1908", "C3540", "C6288", "des", "i10", "k2"]
    )
    def test_session_proof_power(self, name):
        """At the copy-issue budget one session proves every fingerprint
        copy of the larger designs, and still refutes a copy whose output
        differs only when 15 inputs are all 1 — a difference its random
        simulation does not see.  The construction is the reference: a
        full miter of one k2 copy is too slow for a test."""
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
