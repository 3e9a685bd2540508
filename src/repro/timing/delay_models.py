"""Gate delay models for static timing analysis.

Two models are provided.  :class:`UnitDelay` counts logic levels — handy in
tests where hand-computable numbers matter.  :class:`LibraryDelay` is the
default linear model: a gate's propagation delay is its cell's intrinsic
delay plus a load term proportional to the capacitance of everything the
gate drives (consumer input pins plus primary-output pad load).  This is
the same first-order model behind the paper's ABC-reported delays, and it
is what makes fingerprint modifications *cost* delay: widening a cell both
raises its intrinsic delay (bigger cell) and adds load to the trigger net.
"""

from __future__ import annotations

from typing import Dict, Protocol

from ..cells.library import Cell
from ..netlist.circuit import Circuit, Gate

#: Capacitive load presented by one primary-output pad.
OUTPUT_PAD_LOAD = 2.0


class DelayModel(Protocol):
    """Computes one gate's propagation delay inside a circuit."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        """Propagation delay of ``gate`` in ``circuit``, in ns."""
        ...


class UnitDelay:
    """Every gate takes one time unit; constants take zero."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        if gate.kind in ("CONST0", "CONST1"):
            return 0.0
        return 1.0


class LibraryDelay:
    """Linear delay: ``intrinsic + load_coefficient * driven_capacitance``."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        return self.cell_delay(gate.cell, driven_loads(circuit).get(gate.name, 0.0), 0)

    def cell_delay(self, cell: Cell, load: float, span: int) -> float:
        """Delay of ``cell`` driving capacitance ``load`` (``span`` is unused)."""
        return cell.intrinsic_delay + cell.load_delay * load


class WireDelay(LibraryDelay):
    """Library delay plus interconnect delay for long routes.

    A gate driving a consumer many logic levels away needs a physically
    long wire; the accumulated route capacitance slows the *driver*, and
    therefore every path through it.  We charge the driver
    ``per_level * sum(span)`` where each consumer contributes
    ``max(0, level(consumer) - level(driver) - 1)`` — locally-consumed
    nets pay nothing, and every additional long tap adds cost.

    This is the first-order reason the paper's fingerprint reroutes are
    expensive: the ODC trigger is deliberately tapped at the *earliest*
    logic level and hauled to a *deep* target gate — a cross-layout route
    whose RC burdens the trigger's (early, widely shared) driver.  It is
    what makes the measured delay overhead dominate area and power, as in
    the paper's Table II, and what the reactive heuristic then claws back
    by removing exactly the taps that burden the critical path.
    """

    def __init__(self, per_level: float = 0.30) -> None:
        if per_level < 0:
            raise ValueError("per_level must be >= 0")
        self.per_level = per_level

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        load = driven_loads(circuit).get(gate.name, 0.0)
        if self.per_level == 0:
            return LibraryDelay.cell_delay(self, gate.cell, load, 0)
        return self.cell_delay(gate.cell, load, wire_spans(circuit).get(gate.name, 0))

    def cell_delay(self, cell: Cell, load: float, span: int) -> float:
        """Delay of ``cell`` driving ``load`` over routes spanning ``span`` levels."""
        return LibraryDelay.cell_delay(self, cell, load, span) + self.per_level * span


def driven_loads(circuit: Circuit) -> Dict[str, float]:
    """Capacitance each net drives: consumer input pins, then its PO pad.

    One pass over the gate table, cached on the circuit's version.  Each
    net's loads are added in gate-table order, the order
    :meth:`Circuit.fanouts` lists its consumers, and the pad load last,
    so every sum repeats the same float additions as a walk over that
    net's consumers would.
    """
    return circuit.cached("timing.loads", lambda: _driven_loads(circuit))


def _driven_loads(circuit: Circuit) -> Dict[str, float]:
    loads: Dict[str, float] = {}
    for consumer in circuit:
        cap = consumer.cell.input_cap
        # A net that enters a consumer on several pins loads each of them.
        for net in consumer.inputs:
            loads[net] = loads.get(net, 0.0) + cap
    for net in set(circuit.outputs):
        loads[net] = loads.get(net, 0.0) + OUTPUT_PAD_LOAD
    return loads


def wire_spans(circuit: Circuit) -> Dict[str, int]:
    """Summed level span from each net to its consumers (see WireDelay).

    One pass over the gate table, cached on the circuit's version.
    """
    return circuit.cached("timing.spans", lambda: _wire_spans(circuit))


def _wire_spans(circuit: Circuit) -> Dict[str, int]:
    levels = circuit.levels()
    spans: Dict[str, int] = {}
    for consumer in circuit:
        reach = levels.get(consumer.name, 0) - 1
        # One span per consumer, however many of its pins read the net.
        for net in dict.fromkeys(consumer.inputs):
            span = reach - levels.get(net, 0)
            if span > 0:
                spans[net] = spans.get(net, 0) + span
    return spans


#: Shared default instances.
UNIT_DELAY = UnitDelay()
LIBRARY_DELAY = LibraryDelay()
WIRE_DELAY = WireDelay()

#: Model used when callers do not specify one.
DEFAULT_DELAY_MODEL = WIRE_DELAY
