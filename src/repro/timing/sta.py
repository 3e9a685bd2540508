"""Static timing analysis: arrival, required time, slack, critical path.

Arrival times propagate forward from primary inputs (time 0); required
times propagate backward from primary outputs, whose required time is the
circuit's own critical delay (zero-slack critical path convention, as in
ABC's ``print_stats``).  Slack information drives the paper's *proactive*
overhead heuristic, which refuses fingerprint modifications that would eat
more slack than the delay budget allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..netlist.circuit import Circuit
from .delay_models import DEFAULT_DELAY_MODEL, DelayModel


@dataclass
class TimingReport:
    """Full STA result for one circuit under one delay model."""

    critical_delay: float
    arrival: Dict[str, float]
    required: Dict[str, float]
    gate_delays: Dict[str, float]
    critical_path: List[str] = field(default_factory=list)

    def slack(self, net: str) -> float:
        """Required minus arrival time of ``net``."""
        return self.required[net] - self.arrival[net]

    def slacks(self) -> Dict[str, float]:
        """Slack of every net."""
        return {net: self.required[net] - self.arrival[net] for net in self.arrival}

    def worst_slack(self) -> float:
        """Minimum slack (0.0 under the zero-slack convention)."""
        return min(self.required[n] - self.arrival[n] for n in self.arrival)


def analyze(circuit: Circuit, model: Optional[DelayModel] = None) -> TimingReport:
    """Run STA and return a :class:`TimingReport`.

    An empty circuit reports zero delay.
    """
    return _timed(circuit, lambda: _analyze(circuit, model))


def critical_delay(circuit: Circuit, model: Optional[DelayModel] = None) -> float:
    """The circuit's critical-path delay (arrival pass only)."""
    return _timed(
        circuit, lambda: _critical(circuit, _arrivals(circuit, model)[0])
    )


def critical_path_nets(circuit: Circuit, model: Optional[DelayModel] = None) -> List[str]:
    """Nets on one maximal-delay path, PI side first (arrival pass only)."""
    return _timed(
        circuit, lambda: _trace_critical_path(circuit, _arrivals(circuit, model)[0])
    )


def _timed(circuit: Circuit, run):
    """Run one timing pass under the ``timing.sta`` span and counter."""
    with telemetry.span("timing.sta", design=circuit.name, gates=circuit.n_gates):
        result = run()
    telemetry.count("timing.analyses")
    return result


def _arrivals(
    circuit: Circuit, model: Optional[DelayModel]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Arrival time of every net and delay of every gate, in one walk."""
    gate_delay = (model if model is not None else DEFAULT_DELAY_MODEL).gate_delay
    arrival: Dict[str, float] = {net: 0.0 for net in circuit.inputs}
    gate_delays: Dict[str, float] = {}
    for gate in circuit.topological_order():
        delay = gate_delay(circuit, gate)
        gate_delays[gate.name] = delay
        if gate.inputs:
            arrival[gate.name] = delay + max(map(arrival.__getitem__, gate.inputs))
        else:
            arrival[gate.name] = delay
    return arrival, gate_delays


def _critical(circuit: Circuit, arrival: Dict[str, float]) -> float:
    if not arrival:
        return 0.0
    output_arrivals = [arrival[n] for n in circuit.outputs if n in arrival]
    return max(output_arrivals) if output_arrivals else max(arrival.values())


def _analyze(circuit: Circuit, model: Optional[DelayModel]) -> TimingReport:
    arrival, gate_delays = _arrivals(circuit, model)
    critical = _critical(circuit, arrival)
    required: Dict[str, float] = {net: critical for net in arrival}
    for gate in reversed(circuit.topological_order()):
        budget = required[gate.name] - gate_delays[gate.name]
        for net in gate.inputs:
            if budget < required[net]:
                required[net] = budget
    return TimingReport(
        critical_delay=critical,
        arrival=arrival,
        required=required,
        gate_delays=gate_delays,
        critical_path=_trace_critical_path(circuit, arrival),
    )


def _trace_critical_path(circuit: Circuit, arrival: Dict[str, float]) -> List[str]:
    if not arrival:
        return []
    outputs = [n for n in circuit.outputs if n in arrival] or list(arrival)
    current = max(outputs, key=lambda n: arrival[n])
    path = [current]
    while True:
        gate = circuit.driver(current)
        if gate is None or not gate.inputs:
            break
        current = max(gate.inputs, key=lambda n: arrival[n])
        path.append(current)
    path.reverse()
    return path
