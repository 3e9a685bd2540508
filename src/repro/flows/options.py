"""`FlowOptions` — the one options object behind the `repro.api` facade.

Every entry point (``fingerprint``, ``batch``, ``verify``) takes this one
dataclass instead of its own positional knobs.  Every field is
keyword-only — the custom ``__init__`` enforces that even on Python 3.9,
where ``dataclass`` has no ``kw_only`` — and unknown option names fail
loudly instead of being silently swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from ..fingerprint.locations import FinderOptions
from .ladder import LadderConfig


@dataclass(frozen=True, init=False)
class FlowOptions:
    """Keyword-only knobs shared by ``fingerprint``, ``batch`` and ``verify``.

    Attributes:
        finder: Location-finder tuning (:class:`FinderOptions`).
        assignment: Explicit slot assignment for ``fingerprint`` (defaults
            to the paper's maximal embedding).
        delay_constraint: Reactive delay-pruning bound (fraction over
            baseline delay), or ``None`` to skip the pruning pass.
        verify: Run the verification ladder after embedding.
        map_style: Technology-mapping style for SOP/BLIF inputs
            (``"aoi"``, ``"nand"`` or ``"aig"``).
        seed: RNG seed (fingerprint-value selection, constraint heuristic).
        ladder: Verification-ladder tuning (:class:`LadderConfig`).
        jobs: Worker processes for ``batch`` (1 = serial).
        measure_overheads: Record per-copy area/delay/power overheads in
            ``batch``.
        trace: Enable span tracing for the duration of the call.
        metrics: Enable metrics collection for the duration of the call.
    """

    finder: Optional[FinderOptions] = None
    assignment: Optional[Dict[str, int]] = None
    delay_constraint: Optional[float] = None
    verify: bool = True
    map_style: str = "aoi"
    seed: int = 0
    ladder: Optional[LadderConfig] = None
    jobs: int = 1
    measure_overheads: bool = False
    trace: bool = False
    metrics: bool = False

    def resolved_finder(self) -> FinderOptions:
        """The effective finder options (the defaults when none were given)."""
        return self.finder or FinderOptions()

    def __init__(self, **options: Any) -> None:
        known = {f.name: f for f in fields(self)}
        unknown = sorted(set(options) - set(known))
        if unknown:
            raise TypeError(
                f"unknown flow option(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(known))})"
            )
        for name, spec in known.items():
            object.__setattr__(self, name, options.get(name, spec.default))
        if self.finder is not None and not isinstance(self.finder, FinderOptions):
            raise TypeError(
                f"finder must be FinderOptions, got {type(self.finder).__name__}"
            )
        if self.ladder is not None and not isinstance(self.ladder, LadderConfig):
            raise TypeError(
                f"ladder must be LadderConfig, got {type(self.ladder).__name__}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")

    def replace(self, **changes: Any) -> "FlowOptions":
        """A copy with ``changes`` applied (same validation as ``__init__``)."""
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update(changes)
        return FlowOptions(**merged)


__all__ = ["FlowOptions"]
