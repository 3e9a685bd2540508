"""Shared configuration and error types for the attack engines."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError


class AttackError(ReproError, ValueError):
    """Invalid attack configuration or an attack precondition failure."""


@dataclass(frozen=True)
class AttackConfig:
    """Tuning knobs shared by every attack engine.

    Attributes:
        seed: Root RNG seed; each attack derives its own stream from it
            (see :func:`repro.seeds.derive_seed`), so per-attack results
            are independent of suite composition and order.
        n_vectors: Packed random vectors for the resubstitution engine's
            simulation prefilters (positive multiple of 64).
        max_passes: Resubstitution sweeps until a fixed point or this cap.
        rewrite_fraction: Fraction of eligible gates the DeMorgan rewrite
            attack restructures.
        colluders: Number of fingerprinted copies the collusion attack
            compares (>= 2).
        collusion_strategy: Forging strategy passed to
            :func:`repro.fingerprint.collusion.collude` (``"strip"`` is
            the strongest removal attack under the marking assumption).
    """

    seed: int = 2015
    n_vectors: int = 256
    max_passes: int = 8
    rewrite_fraction: float = 0.4
    colluders: int = 3
    collusion_strategy: str = "strip"

    def __post_init__(self) -> None:
        if self.n_vectors <= 0 or self.n_vectors % 64:
            raise AttackError("n_vectors must be a positive multiple of 64")
        if self.max_passes < 1:
            raise AttackError("max_passes must be >= 1")
        if not 0.0 < self.rewrite_fraction <= 1.0:
            raise AttackError("rewrite_fraction must be in (0, 1]")
        if self.colluders < 2:
            raise AttackError("colluders must be >= 2")
        if self.collusion_strategy not in ("majority", "random", "strip"):
            raise AttackError(
                f"unknown collusion strategy {self.collusion_strategy!r}"
            )
