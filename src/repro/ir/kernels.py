"""Vectorized evaluation kernels over interned gate kinds.

The compiled IR (:mod:`repro.ir.compiled`) replaces per-gate string
dispatch with small integer *kind codes*; this module fixes the code
space and provides the numpy kernels that evaluate a whole batch of
same-kind, same-arity gates across packed stimulus words in one
operation.  It also hosts the word popcount used by the simulator and
the observability engine (``np.bitwise_count`` when the numpy build has
it, a 16-bit lookup table otherwise).

Everything here operates on ``uint64`` words packed 64 vectors per word
(see :mod:`repro.sim.vectors`); inverting kinds return the bitwise
complement, exactly like :func:`repro.cells.functions.evaluate`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..cells import functions

#: Kind code of primary-input "pseudo gates" (never evaluated).
INPUT = 0

#: Dense code per gate kind, stable across releases (CNF numbering and
#: serialized perf records rely on it not being reshuffled).
KIND_CODE: Dict[str, int] = {
    "BUF": 1,
    "INV": 2,
    "AND": 3,
    "NAND": 4,
    "OR": 5,
    "NOR": 6,
    "XOR": 7,
    "XNOR": 8,
    "CONST0": 9,
    "CONST1": 10,
}

#: Inverse of :data:`KIND_CODE`; index 0 names the primary-input code.
KIND_NAME: Tuple[str, ...] = ("<input>",) + tuple(
    sorted(KIND_CODE, key=KIND_CODE.get)
)

CODE_BUF = KIND_CODE["BUF"]
CODE_INV = KIND_CODE["INV"]
CODE_AND = KIND_CODE["AND"]
CODE_NAND = KIND_CODE["NAND"]
CODE_OR = KIND_CODE["OR"]
CODE_NOR = KIND_CODE["NOR"]
CODE_XOR = KIND_CODE["XOR"]
CODE_XNOR = KIND_CODE["XNOR"]
CODE_CONST0 = KIND_CODE["CONST0"]
CODE_CONST1 = KIND_CODE["CONST1"]

#: Codes whose output complements the underlying operator.
INVERTING_CODES = frozenset((CODE_INV, CODE_NAND, CODE_NOR, CODE_XNOR))

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Batch operator families.  Batching per exact kind produces hundreds of
#: tiny batches on real designs (level x kind x arity); instead, kinds that
#: share a reduction operator evaluate together, with a per-row XOR mask
#: realizing the inverting variants: AND/NAND/BUF/INV fold into one
#: AND-reduction (``a & a == a`` makes padding with a repeated fanin a
#: no-op, and BUF/INV are the arity-1 degenerate case), OR/NOR into one
#: OR-reduction, XOR/XNOR into one XOR-reduction (never padded — repeating
#: a fanin flips parity).
OP_AND = 0
OP_OR = 1
OP_XOR = 2

#: Family operator per kind code (constants handled separately).
FAMILY_OP: Dict[int, int] = {
    CODE_BUF: OP_AND,
    CODE_INV: OP_AND,
    CODE_AND: OP_AND,
    CODE_NAND: OP_AND,
    CODE_OR: OP_OR,
    CODE_NOR: OP_OR,
    CODE_XOR: OP_XOR,
    CODE_XNOR: OP_XOR,
}

_REDUCERS = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


def eval_family(
    op: int,
    values: np.ndarray,
    fanins: np.ndarray,
    invert: np.ndarray,
    col_counts: np.ndarray,
) -> np.ndarray:
    """Evaluate one operator-family batch by column accumulation.

    ``fanins`` is the ``(batch, arity)`` padded fanin-ID matrix with rows
    sorted by descending true arity; ``col_counts[i]`` is the number of
    rows whose true arity exceeds ``i``.  Column ``i`` is folded into the
    accumulator only over rows ``[:col_counts[i]]``, so padded positions
    are never read and short rows cost nothing.  Faster than a 3-D
    gather + ``ufunc.reduce`` because each step is a flat 2-D in-place op.
    """
    acc = values[fanins[:, 0]]  # fancy index: a fresh copy, safe in-place
    reducer = _REDUCERS[op]
    for i in range(1, fanins.shape[1]):
        n = col_counts[i]
        reducer(acc[:n], values[fanins[:n, i]], out=acc[:n])
    np.bitwise_xor(acc, invert[:, None], out=acc)
    return acc

assert set(KIND_CODE) == set(functions.ALL_KINDS)


def code_of(kind: str) -> int:
    """Kind code for a gate-kind string (raises on unknown kinds)."""
    try:
        return KIND_CODE[kind]
    except KeyError:
        raise functions.UnknownGateKindError(f"unknown gate kind {kind!r}")


def eval_batch(code: int, operands: np.ndarray) -> np.ndarray:
    """Evaluate one batch of same-kind gates in a single numpy reduction.

    ``operands`` has shape ``(batch, arity, words)`` — row ``g`` holds the
    packed input words of the batch's ``g``-th gate.  Returns the packed
    outputs, shape ``(batch, words)``.  Constant kinds ignore ``operands``
    except for its leading/trailing shape.
    """
    batch, _arity, words = operands.shape
    if code == CODE_CONST0:
        return np.zeros((batch, words), dtype=np.uint64)
    if code == CODE_CONST1:
        return np.full((batch, words), ALL_ONES, dtype=np.uint64)
    if code == CODE_BUF:
        return operands[:, 0, :]
    if code == CODE_INV:
        return ~operands[:, 0, :]
    if code in (CODE_AND, CODE_NAND):
        acc = np.bitwise_and.reduce(operands, axis=1)
        return ~acc if code == CODE_NAND else acc
    if code in (CODE_OR, CODE_NOR):
        acc = np.bitwise_or.reduce(operands, axis=1)
        return ~acc if code == CODE_NOR else acc
    acc = np.bitwise_xor.reduce(operands, axis=1)
    return ~acc if code == CODE_XNOR else acc


def eval_gate(code: int, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate one gate over 1-D packed word arrays (scalar-batch path).

    Used by cone-restricted re-simulation, where gates are visited one at
    a time; semantics match :func:`eval_batch` with ``batch == 1``.
    """
    if code == CODE_BUF:
        return operands[0].copy()
    if code == CODE_INV:
        return ~operands[0]
    if code in (CODE_AND, CODE_NAND):
        acc = operands[0]
        for word in operands[1:]:
            acc = acc & word
        return ~acc if code == CODE_NAND else acc
    if code in (CODE_OR, CODE_NOR):
        acc = operands[0]
        for word in operands[1:]:
            acc = acc | word
        return ~acc if code == CODE_NOR else acc
    if code in (CODE_XOR, CODE_XNOR):
        acc = operands[0]
        for word in operands[1:]:
            acc = acc ^ word
        return ~acc if code == CODE_XNOR else acc
    raise ValueError(f"cannot evaluate kind code {code} gate-wise")


# --------------------------------------------------------------------- #
# popcount
# --------------------------------------------------------------------- #

#: Bits set per 16-bit value; the fallback when numpy lacks a native
#: popcount.  64 KiB once per process.
_POPCOUNT16 = None


def _lut16() -> np.ndarray:
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        counts = np.zeros(1 << 16, dtype=np.uint8)
        for shift in range(16):
            counts += (np.arange(1 << 16, dtype=np.uint32) >> shift).astype(np.uint16) & 1
        _POPCOUNT16 = counts
    return _POPCOUNT16


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via the 16-bit lookup table (portable path)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    halves = _lut16()[words.view(np.uint16)]
    return halves.reshape(words.shape + (4,)).sum(axis=-1, dtype=np.uint64)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word popcount (native ``np.bitwise_count``)."""
        return np.bitwise_count(np.asarray(words, dtype=np.uint64))

else:  # pragma: no cover - exercised only on numpy < 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word popcount (lookup-table fallback, numpy < 2.0)."""
        return popcount_lut(words)
