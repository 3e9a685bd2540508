"""Differential fuzz harness for the attack suite (ISSUE 10).

Every attack engine must be *function-preserving*: whatever it does to
dislodge the fingerprint, the attacked copy it hands back has to remain
functionally equivalent to the victim copy — otherwise the "attack"
is just corruption and its survival score is meaningless.  This suite
enforces that over a 200+ circuit population of random and
faultinject-mutated fingerprinted designs:

* **verdict identity** (``-m differential``): for every attack engine on
  every population circuit, the SAT CEC verdict between the victim copy
  and the (ground-truth-restored) attacked copy is EQUIVALENT — the
  check the robustness harness runs through a CEC session, asserted
  here on the raw reference miter
  (:func:`tests.miter_reference.miter_check`), which shares no sweep
  or simulation with the session;
* **score determinism** (``-m differential``): re-running the full suite
  harness under a pinned seed reproduces every robustness score
  bit-for-bit (timing fields excluded);
* **deep sweep** (``-m slow``): the full harness (ladder verification,
  extraction, tracing, cost metrics) over larger circuits, end to end.

Population sizing: 140 random + 60 mutated + 12 determinism + 10 deep
= 222 distinct fingerprinted circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.attack import (
    ATTACK_CLASSES,
    AttackConfig,
    AttackError,
    build_context,
    run_attack_suite,
)
from repro.attack.harness import _restore_for_equivalence
from repro.bench import RandomLogicSpec, generate
from repro.errors import FaultInjectionError
from repro.faultinject import GateKindSwap, StuckAtNet
from repro.netlist.circuit import NetlistError
from repro.sat.cec import CecVerdict
from tests.miter_reference import miter_check

pytestmark = pytest.mark.attack

#: Cheap settings: resubstitution converges in 1-2 passes on circuits
#: this size, and 64 packed vectors keep the candidate filter sharp.
CONFIG = AttackConfig(seed=2015, n_vectors=64, max_passes=2)

N_RANDOM = 140
N_MUTATED = 60
N_DETERMINISM = 12
N_DEEP = 10

_MUTATORS = (GateKindSwap(), StuckAtNet())


def random_circuit(seed: int, n_gates: int = 50):
    return generate(
        RandomLogicSpec(
            name=f"atk{seed}",
            n_inputs=6 + seed % 5,
            n_outputs=2 + seed % 3,
            n_gates=n_gates,
            seed=seed,
        )
    )


def mutated_circuit(seed: int):
    """A random circuit with a structural fault baked in as the 'design'.

    The mutant computes a *different* function from the pristine circuit
    — that is the point: it is a new design, and the attack engines must
    preserve *its* function, odd structure and all.
    """
    circuit = random_circuit(seed + 5000, n_gates=45)
    rng = random.Random(seed)
    mutator = _MUTATORS[seed % len(_MUTATORS)]
    try:
        mutator.apply(circuit, rng)
        circuit.validate()
    except (FaultInjectionError, NetlistError):
        return random_circuit(seed + 9000, n_gates=45)  # keep the count
    return circuit


def assert_attacks_preserve_function(design, label: str) -> None:
    """Every attack engine -> restore -> raw SAT CEC verdict identity."""
    try:
        ctx = build_context(design, CONFIG)
    except AttackError:
        pytest.skip(f"{label}: no fingerprint locations")
    for cls in ATTACK_CLASSES:
        attacked = cls().run(ctx)
        restored = _restore_for_equivalence(attacked, ctx.victim_copy)
        result = miter_check(ctx.victim_copy, restored)
        assert result.verdict is CecVerdict.EQUIVALENT, (
            f"{label}: {cls.name} attack broke functional equivalence "
            f"(verdict {result.verdict}, edits {attacked.edits})"
        )


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if k != "seconds"
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


@pytest.mark.differential
class TestEquivalencePopulation:
    """Verdict identity on 200 random/mutated fingerprinted circuits."""

    @pytest.mark.parametrize("seed", range(N_RANDOM))
    def test_random_circuit(self, seed):
        design = random_circuit(seed, n_gates=40 + (seed % 5) * 12)
        assert_attacks_preserve_function(design, f"random seed {seed}")

    @pytest.mark.parametrize("seed", range(N_MUTATED))
    def test_mutated_circuit(self, seed):
        assert_attacks_preserve_function(
            mutated_circuit(seed), f"mutated seed {seed}"
        )


@pytest.mark.differential
class TestScoreDeterminism:
    """Pinned seed -> bit-identical robustness scores across reruns."""

    @pytest.mark.parametrize("seed", range(N_DETERMINISM))
    def test_suite_reproducible(self, seed):
        design = random_circuit(seed + 20_000, n_gates=45)
        try:
            first = run_attack_suite(design, config=CONFIG)
        except AttackError:
            pytest.skip(f"determinism seed {seed}: no locations")
        second = run_attack_suite(design, config=CONFIG)
        assert _strip_timing(first.as_dict()) == _strip_timing(
            second.as_dict()
        )
        assert first.all_equivalent


@pytest.mark.slow
class TestDeepSweep:
    """Full harness end to end on larger circuits."""

    @pytest.mark.parametrize("seed", range(N_DEEP))
    def test_full_harness(self, seed):
        design = random_circuit(seed + 40_000, n_gates=150)
        try:
            report = run_attack_suite(design, config=CONFIG)
        except AttackError:
            pytest.skip(f"deep seed {seed}: no locations")
        assert report.all_equivalent
        survival = report.survival()
        for name in ("rename", "remap"):
            if name in survival:
                assert survival[name] == 1.0, (
                    f"deep seed {seed}: {name} dislodged the fingerprint"
                )
