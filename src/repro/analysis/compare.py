"""Overhead computation between a baseline and a modified circuit.

The paper's headline columns are percentage overheads of a fingerprinted
copy relative to the original design; :func:`overhead` produces exactly
those numbers from two :class:`~repro.analysis.metrics.Metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist.circuit import Circuit
from .metrics import Metrics, measure


@dataclass(frozen=True)
class Overhead:
    """Relative cost of a modified circuit versus its baseline.

    Each field is a fraction: 0.109 means +10.9%.  A negative value means
    the modified circuit improved on the baseline.
    """

    area: float
    delay: float
    power: float

    def as_percentages(self) -> dict:
        return {
            "area_pct": 100.0 * self.area,
            "delay_pct": 100.0 * self.delay,
            "power_pct": 100.0 * self.power,
        }


def _ratio(new: float, old: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old


def overhead(baseline: Metrics, modified: Metrics) -> Overhead:
    """Fractional overheads of ``modified`` relative to ``baseline``."""
    return Overhead(
        area=_ratio(modified.area, baseline.area),
        delay=_ratio(modified.delay, baseline.delay),
        power=_ratio(modified.power, baseline.power),
    )


def circuit_overhead(baseline: Circuit, modified: Circuit) -> Overhead:
    """Measure both circuits and return the overhead."""
    return overhead(measure(baseline), measure(modified))
