"""Simulation-based combinational equivalence checking.

Exhaustive for small input counts (complete, not probabilistic), random
64-bit-parallel for larger circuits.  Completeness beyond the exhaustive
limit comes from :func:`repro.sat.incremental.sat_equivalent` (a one-copy
CEC session), which :func:`check_equivalence` calls with
``complete=True``; the verification ladder (:mod:`repro.flows.ladder`)
uses this module's exhaustive and random checks as its simulation tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import ReproError
from ..netlist.circuit import Circuit
from .simulator import Simulator
from .vectors import (
    MAX_EXHAUSTIVE_INPUTS,
    WORD_BITS,
    exhaustive_stimulus,
    exhaustive_vector_count,
    random_stimulus,
    vector_of,
)

#: Seed of the packed random vectors drawn when no caller names one.
RANDOM_SEED = 0


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check.

    ``equivalent`` is the verdict; ``complete`` records whether the check
    was exhaustive (a ``False`` verdict is always definitive, a ``True``
    verdict is only a proof when ``complete``).  ``counterexample`` holds a
    distinguishing input assignment when one was found, and ``output`` the
    first differing primary output.
    """

    equivalent: bool
    complete: bool
    n_vectors: int
    counterexample: Optional[Dict[str, int]] = None
    output: Optional[str] = None


class PortMismatchError(ReproError, ValueError):
    """Circuits with different port interfaces cannot be compared."""


def _check_ports(left: Circuit, right: Circuit) -> None:
    if set(left.inputs) != set(right.inputs):
        raise PortMismatchError(
            f"input sets differ: {sorted(set(left.inputs) ^ set(right.inputs))}"
        )
    if set(left.outputs) != set(right.outputs):
        raise PortMismatchError(
            f"output sets differ: {sorted(set(left.outputs) ^ set(right.outputs))}"
        )


def _compare(
    left: Circuit,
    right: Circuit,
    stimulus: Dict[str, np.ndarray],
    n_vectors: int,
    complete: bool,
) -> EquivalenceResult:
    left_out = Simulator(left).run_outputs(stimulus)
    right_out = Simulator(right).run_outputs(stimulus)
    for net in left.outputs:
        diff = left_out[net] ^ right_out[net]
        if not diff.any():
            continue
        word = int(np.flatnonzero(diff)[0])
        bits = int(diff[word])
        bit = (bits & -bits).bit_length() - 1
        index = word * WORD_BITS + bit
        if index >= n_vectors:
            # Difference only in padding bits beyond the meaningful range.
            mask_ok = True
            for w in np.flatnonzero(diff):
                base = int(w) * WORD_BITS
                value = int(diff[int(w)])
                while value:
                    b = (value & -value).bit_length() - 1
                    if base + b < n_vectors:
                        index = base + b
                        mask_ok = False
                        break
                    value &= value - 1
                if not mask_ok:
                    break
            if mask_ok:
                continue
        return EquivalenceResult(
            equivalent=False,
            complete=complete,
            n_vectors=n_vectors,
            counterexample=vector_of(stimulus, index),
            output=net,
        )
    return EquivalenceResult(True, complete, n_vectors)


def exhaustive_equivalent(left: Circuit, right: Circuit) -> EquivalenceResult:
    """Complete equivalence check by enumerating all input assignments."""
    _check_ports(left, right)
    stimulus = exhaustive_stimulus(left.inputs)
    n_vectors = exhaustive_vector_count(len(left.inputs))
    return _compare(left, right, stimulus, n_vectors, complete=True)


def random_equivalent(
    left: Circuit,
    right: Circuit,
    n_vectors: int = 4096,
    seed: int = RANDOM_SEED,
) -> EquivalenceResult:
    """Probabilistic equivalence check with packed random vectors."""
    _check_ports(left, right)
    stimulus = random_stimulus(left.inputs, n_vectors, seed=seed)
    return _compare(left, right, stimulus, n_vectors, complete=False)


def check_equivalence(
    left: Circuit,
    right: Circuit,
    max_exhaustive_inputs: int = 16,
    n_random_vectors: int = 8192,
    complete: bool = False,
) -> EquivalenceResult:
    """Exhaustive when feasible, random otherwise.

    With ``complete=True`` a circuit too wide for exhaustive simulation is
    first screened with random vectors (cheap counterexamples) and then,
    if no mismatch was found, decided by
    :func:`~repro.sat.incremental.sat_equivalent` — so the returned
    verdict is always definitive.
    """
    _check_ports(left, right)
    n_inputs = len(left.inputs)
    if n_inputs <= min(max_exhaustive_inputs, MAX_EXHAUSTIVE_INPUTS):
        return exhaustive_equivalent(left, right)
    result = random_equivalent(left, right, n_vectors=n_random_vectors)
    if not complete or not result.equivalent:
        return result
    from ..sat.incremental import sat_equivalent  # local import: sat layers above sim

    verdict = sat_equivalent(left, right)
    return EquivalenceResult(
        equivalent=verdict.equivalent,
        complete=True,
        n_vectors=result.n_vectors,
        counterexample=verdict.counterexample,
        output=None,
    )
