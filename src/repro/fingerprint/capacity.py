"""Fingerprint capacity accounting and the mixed-radix codec.

The configuration space of a catalog is the product over slots of
``(variants + 1)`` choices; the paper reports ``log2`` of that product
(Table II, column "Log2(Possible Fingerprint Combinations)") because the
raw counts overflow ordinary number formats.  The codec maps integers (or
bit strings) bijectively onto configuration assignments so every buyer id
gets a distinct fingerprint copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .locations import LocationCatalog
from .modifications import Slot


@dataclass(frozen=True)
class CapacityReport:
    """Size of a catalog's fingerprint space."""

    n_locations: int
    n_slots: int
    n_variants: int
    combinations: int
    bits: float

    @property
    def min_combinations(self) -> int:
        """The paper's 2**n lower bound (n = number of locations)."""
        return 1 << self.n_locations


def capacity(catalog: LocationCatalog) -> CapacityReport:
    """Compute the exact configuration count and its log2."""
    combinations = 1
    n_slots = 0
    n_variants = 0
    for slot in catalog.slots():
        combinations *= slot.n_configs
        n_slots += 1
        n_variants += len(slot.variants)
    bits = math.log2(combinations) if combinations > 1 else 0.0
    return CapacityReport(
        n_locations=catalog.n_locations,
        n_slots=n_slots,
        n_variants=n_variants,
        combinations=combinations,
        bits=bits,
    )


class FingerprintCodec:
    """Bijective mixed-radix encoding of integers as slot assignments.

    Slot order follows the catalog's deterministic order; slot ``i`` is a
    digit of radix ``n_configs(i)``.  ``encode`` maps an integer in
    ``[0, combinations)`` to an assignment, ``decode`` inverts it.
    """

    def __init__(self, catalog: LocationCatalog) -> None:
        self.catalog = catalog
        self._slots: List[Slot] = self._digit_slots(catalog)
        self._radices = [slot.n_configs for slot in self._slots]
        self.combinations = 1
        for radix in self._radices:
            self.combinations *= radix

    @staticmethod
    def _digit_slots(catalog: LocationCatalog) -> List[Slot]:
        """The digits' slots, in order (each has ``target`` and ``n_configs``)."""
        return catalog.slots()

    @property
    def n_digits(self) -> int:
        return len(self._slots)

    @property
    def bits(self) -> float:
        return math.log2(self.combinations) if self.combinations > 1 else 0.0

    def encode(self, value: int) -> Dict[str, int]:
        """Integer -> slot assignment (target -> configuration index)."""
        if not 0 <= value < self.combinations:
            raise ValueError(
                f"value {value} outside fingerprint space [0, {self.combinations})"
            )
        assignment: Dict[str, int] = {}
        for slot, radix in zip(self._slots, self._radices):
            value, digit = divmod(value, radix)
            assignment[slot.target] = digit
        return assignment

    def decode(self, assignment: Dict[str, int]) -> int:
        """Slot assignment -> integer."""
        value = 0
        for slot, radix in reversed(list(zip(self._slots, self._radices))):
            digit = assignment.get(slot.target, 0)
            if not 0 <= digit < radix:
                raise ValueError(
                    f"slot {slot.target}: configuration {digit} out of range"
                )
            value = value * radix + digit
        return value

    def encode_bits(self, bits: Sequence[int]) -> Dict[str, int]:
        """Encode a little-endian bit sequence (must fit the space)."""
        value = 0
        for i, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError("bits must be 0/1")
            value |= bit << i
        return self.encode(value)

    def decode_bits(self, assignment: Dict[str, int], n_bits: int) -> List[int]:
        """Decode to a little-endian bit list of length ``n_bits``."""
        value = self.decode(assignment)
        return [(value >> i) & 1 for i in range(n_bits)]

    def random_assignment(self, rng) -> Dict[str, int]:
        """Uniform random point of the fingerprint space."""
        return self.encode(rng.randrange(self.combinations))
