"""Unified area / delay / power measurement of a circuit.

`measure` is the single entry point the experiment harness and the
overhead heuristics use — one call produces the three columns the paper
reports per circuit (area, delay, power) plus gate count and depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netlist.circuit import Circuit
from ..power.estimate import estimate_power
from ..timing.sta import critical_delay


@dataclass(frozen=True)
class Metrics:
    """Point measurement of one circuit."""

    name: str
    gates: int
    depth: int
    area: float
    delay: float
    power: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "gates": self.gates,
            "depth": self.depth,
            "area": self.area,
            "delay": self.delay,
            "power": self.power,
        }


def total_area(circuit: Circuit) -> float:
    """Summed cell area."""
    return sum(gate.cell.area for gate in circuit.gates)


def measure(circuit: Circuit) -> Metrics:
    """Measure area, critical delay and estimated power of ``circuit``.

    The delay is under
    :data:`~repro.timing.delay_models.DEFAULT_DELAY_MODEL`.
    """
    return Metrics(
        name=circuit.name,
        gates=circuit.n_gates,
        depth=circuit.depth(),
        area=total_area(circuit),
        delay=critical_delay(circuit),
        power=estimate_power(circuit).total,
    )
