"""Text-level corruptors for netlist interchange formats.

Where :mod:`repro.faultinject.mutators` breaks in-memory netlists, these
break the *serialized* forms — truncated transfers, bit-rotted files,
editor accidents — to prove the BLIF and Verilog parsers fail with their
documented typed errors (``BlifError`` / ``VerilogError``) and never with a
raw ``IndexError`` or an infinite loop.  A corruption may also happen to be
harmless (e.g. garbling a comment); the campaign accepts a clean parse too.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Tuple

from ..errors import FaultInjectionError

_GARBLE_ALPHABET = string.ascii_letters + string.digits + " .\t-_()[]{};,#\\"


@dataclass(frozen=True)
class CorruptedText:
    """One corrupted document plus what was done to it."""

    corruptor: str
    description: str
    text: str


class Corruptor:
    """Base class: derive a corrupted variant of ``text``."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        raise NotImplementedError

    def _result(self, description: str, text: str) -> CorruptedText:
        return CorruptedText(self.name, description, text)

    @staticmethod
    def _require_text(text: str) -> None:
        if not text.strip():
            raise FaultInjectionError("cannot corrupt empty text")


class TruncateText(Corruptor):
    """Cut the document off mid-stream (interrupted transfer)."""

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        self._require_text(text)
        cut = rng.randrange(1, max(2, len(text)))
        return self._result(f"truncated to {cut}/{len(text)} chars", text[:cut])


class GarbleCharacters(Corruptor):
    """Overwrite a handful of characters with random junk (bit rot)."""

    #: Characters overwritten per corruption.
    N_CHARS = 8

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        self._require_text(text)
        chars = list(text)
        positions = [rng.randrange(len(chars)) for _ in range(self.N_CHARS)]
        for position in positions:
            chars[position] = rng.choice(_GARBLE_ALPHABET)
        return self._result(
            f"garbled {len(positions)} chars", "".join(chars)
        )


class DropLines(Corruptor):
    """Delete random lines (lost packets, merge damage)."""

    #: Share of the lines deleted (at least one).
    FRACTION = 0.2

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        self._require_text(text)
        lines = text.split("\n")
        n_drop = max(1, int(len(lines) * self.FRACTION))
        doomed = set(rng.sample(range(len(lines)), min(n_drop, len(lines))))
        kept = [line for i, line in enumerate(lines) if i not in doomed]
        return self._result(
            f"dropped {len(doomed)}/{len(lines)} lines", "\n".join(kept)
        )


class ShuffleTokens(Corruptor):
    """Shuffle the whitespace-separated tokens of one line."""

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        self._require_text(text)
        lines = text.split("\n")
        candidates = [
            i for i, line in enumerate(lines) if len(line.split()) >= 2
        ]
        if not candidates:
            return self._result("no multi-token line; unchanged", text)
        index = candidates[rng.randrange(len(candidates))]
        tokens = lines[index].split()
        rng.shuffle(tokens)
        lines[index] = " ".join(tokens)
        return self._result(
            f"shuffled {len(tokens)} tokens on line {index + 1}",
            "\n".join(lines),
        )


class DuplicateSection(Corruptor):
    """Repeat a random slice of the document (paste accident)."""

    def apply(self, text: str, rng: random.Random) -> CorruptedText:
        self._require_text(text)
        lines = text.split("\n")
        start = rng.randrange(len(lines))
        stop = min(len(lines), start + rng.randrange(1, 4))
        duplicated = lines[:stop] + lines[start:stop] + lines[stop:]
        return self._result(
            f"duplicated lines {start + 1}..{stop}", "\n".join(duplicated)
        )


#: One instance of every text corruptor class, campaign default order.
ALL_CORRUPTORS: Tuple[Corruptor, ...] = (
    TruncateText(),
    GarbleCharacters(),
    DropLines(),
    ShuffleTokens(),
    DuplicateSection(),
)

__all__ = [
    "ALL_CORRUPTORS",
    "CorruptedText",
    "Corruptor",
    "DropLines",
    "DuplicateSection",
    "GarbleCharacters",
    "ShuffleTokens",
    "TruncateText",
]
