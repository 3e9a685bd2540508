"""Arrival times kept up to date across small edits of one circuit.

The reactive pruning loop
(:func:`~repro.fingerprint.constraints.reactive_delay_constrain`) removes
one modification, times the trial version and puts the modification
back, for every candidate of every step.  Such an edit replaces one gate
and adds or removes at most one inverter, yet a full pass
(:mod:`repro.timing.sta`) rebuilds the whole circuit's topological
order, levels, load and span tables and arrival walk.

An :class:`IncrementalTimer` is built from one full pass.  When it is
queried after the circuit changed, it finds the gates the edits added,
replaced or removed and recomputes only:

* the loads of nets whose consumers changed;
* levels and spans where they moved;
* the delays of gates whose load, span or cell moved;
* arrivals downstream of a changed delay or fanin, stopping where an
  arrival comes out unchanged.

Every value equals a full pass under
:data:`~repro.timing.delay_models.DEFAULT_DELAY_MODEL` bit for bit:

* A net's load is summed over its consumers in the current gate-table
  order, one ``input_cap`` per pin, with the pad load last, as
  :func:`~repro.timing.delay_models.driven_loads` sums it.
  ``replace_gate`` puts the gate back at the end of the gate table, which
  reorders the load sums of its input nets; each net's consumer dict
  therefore moves a replaced gate to its end too.
* The critical path is traced by the full pass's own tie-breaking.
* Gates are processed in the topological order of the last full pass,
  which stays valid while every edge an edit adds runs forward in it.
  The pruning loop only removes edges and restores edges the copy had
  when the timer was built, so it never leaves that order.  An edit that
  adds a gate name the order does not know or an edge that runs backward
  in it, removes a gate something still reads, or changes the ports makes
  the next query run a full pass instead.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Set

from .. import telemetry
from ..netlist.circuit import Circuit, Gate
from .delay_models import DEFAULT_DELAY_MODEL, OUTPUT_PAD_LOAD
from .sta import _arrivals, _critical, _timed, _trace_critical_path, critical_path_nets


class IncrementalTimer:
    """Arrival times of ``circuit`` under the default delay model.

    Queries bring the timer up to date with the circuit's current version
    first.  Each incremental update counts one ``timing.updates``; each
    full pass (the first, and any an edit forces) opens one ``timing.sta``
    span and counts one ``timing.analyses``, like the functions of
    :mod:`repro.timing.sta`.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        _timed(circuit, self._rebuild)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def arrival(self) -> Dict[str, float]:
        """Arrival time of every net (shared dict: do not mutate)."""
        self._sync()
        return self._arrival

    @property
    def gate_delays(self) -> Dict[str, float]:
        """Delay of every gate (shared dict: do not mutate)."""
        self._sync()
        return self._delay

    def critical_delay(self) -> float:
        """What :func:`~repro.timing.sta.critical_delay` returns."""
        self._sync()
        return _critical(self.circuit, self._arrival)

    def critical_path(self) -> List[str]:
        """What :func:`~repro.timing.sta.critical_path_nets` returns."""
        self._sync()
        if not any(net in self._arrival for net in self._outputs):
            # The full pass then starts from the latest net in its own walk
            # order, which this timer does not keep.
            return critical_path_nets(self.circuit)
        return _trace_critical_path(self.circuit, self._arrival)

    # ------------------------------------------------------------------ #
    # full pass
    # ------------------------------------------------------------------ #

    def _rebuild(self) -> None:
        circuit = self.circuit
        order = circuit.topological_order()
        self._inputs = circuit.inputs
        self._outputs = circuit.outputs
        self._output_set = set(self._outputs)
        #: Topological position of every gate name seen since the last
        #: full pass (PIs at -1); removed names keep theirs for re-adding.
        self._pos: Dict[str, int] = dict.fromkeys(self._inputs, -1)
        self._pos.update((gate.name, i) for i, gate in enumerate(order))
        self._gates: Dict[str, Gate] = {gate.name: gate for gate in circuit}
        #: net -> {consumer: pins reading the net}, in gate-table order.
        self._consumers: Dict[str, Dict[str, int]] = {}
        for gate in circuit:
            self._link(gate)
        self._level: Dict[str, int] = dict(circuit.levels())
        self._arrival, self._delay = _arrivals(circuit, DEFAULT_DELAY_MODEL)
        self._version = circuit.version

    def _sync(self) -> None:
        circuit = self.circuit
        if circuit.version == self._version:
            return
        edits = self._edits()
        if edits is None:
            _timed(circuit, self._rebuild)
            return
        self._update(*edits)
        self._version = circuit.version
        telemetry.count("timing.updates")

    # ------------------------------------------------------------------ #
    # incremental update
    # ------------------------------------------------------------------ #

    def _edits(self):
        """``(inserted, removed)`` since the last sync, or None to rebuild.

        Every gate added or replaced since then sits at the end of the gate
        table (in table order, as ``inserted``), behind every gate this
        timer has seen; removed gates were inputs of the replaced ones.
        """
        circuit = self.circuit
        if circuit.inputs != self._inputs or circuit.outputs != self._outputs:
            return None
        gates, pos = self._gates, self._pos
        inserted: List[Gate] = []
        for gate in reversed(circuit):
            if gates.get(gate.name) is gate:
                break
            inserted.append(gate)
        inserted.reverse()
        names = {gate.name for gate in inserted}
        removed = {
            net
            for gate in inserted
            if gate.name in gates
            for net in gates[gate.name].inputs
            if net in gates and circuit.driver(net) is None
        }
        added = len(names - gates.keys())
        if len(gates) - len(removed) + added != len(circuit):
            return None  # a removal the replaced gates do not explain
        if any(not names.issuperset(self._consumers.get(net, ())) for net in removed):
            return None  # an unedited gate still reads a removed net
        for gate in inserted:
            here = pos.get(gate.name)
            if here is None:
                return None
            for net in gate.inputs:
                if pos.get(net, here) >= here or not circuit.has_net(net):
                    return None
        return inserted, removed

    def _update(self, inserted: List[Gate], removed: Set[str]) -> None:
        gates, consumers = self._gates, self._consumers
        level, delay, arrival = self._level, self._delay, self._arrival
        names = [gate.name for gate in inserted]
        # Nets whose consumer dicts change: their loads and spans move.
        touched: Set[str] = set()
        for name in [*names, *removed]:
            old = gates.pop(name, None)
            if old is not None:
                self._unlink(old)
                touched.update(old.inputs)
        for name in removed:
            consumers.pop(name, None)
            del level[name], delay[name], arrival[name]
        for gate in inserted:
            gates[gate.name] = gate
            self._link(gate)
            touched.update(gate.inputs)

        moved = self._walk(names, self._relevel)
        for name in moved:
            touched.add(name)
            touched.update(gates[name].inputs)
        touched.update(names)
        retimed = set(names)
        for net in touched:
            gate = gates.get(net)
            if gate is None:
                continue  # a primary input or a removed gate
            value = self._gate_delay(gate)
            if delay.get(net) != value:
                delay[net] = value
                retimed.add(net)
        self._walk(retimed, self._retime)

    def _link(self, gate: Gate) -> None:
        """Append ``gate`` to its input nets' consumers, one pin at a time."""
        consumers = self._consumers
        for net in gate.inputs:
            pins = consumers.setdefault(net, {})
            pins[gate.name] = pins.get(gate.name, 0) + 1

    def _unlink(self, gate: Gate) -> None:
        for net in gate.inputs:
            self._consumers[net].pop(gate.name, None)

    def _walk(self, seeds: Iterable[str], recompute) -> List[str]:
        """Recompute ``seeds`` in topological order, and the consumers of each
        net whose value ``recompute`` reports as moved; return the moved nets."""
        pos, consumers = self._pos, self._consumers
        heap = [(pos[name], name) for name in seeds]
        heapq.heapify(heap)
        queued = {name for _, name in heap}
        moved: List[str] = []
        while heap:
            _, name = heapq.heappop(heap)
            if not recompute(self._gates[name]):
                continue
            moved.append(name)
            for consumer in consumers.get(name, ()):
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(heap, (pos[consumer], consumer))
        return moved

    def _relevel(self, gate: Gate) -> bool:
        level = self._level
        value = 1 + max(map(level.__getitem__, gate.inputs)) if gate.inputs else 0
        if level.get(gate.name) == value:
            return False
        level[gate.name] = value
        return True

    def _retime(self, gate: Gate) -> bool:
        arrival = self._arrival
        value = self._delay[gate.name]
        if gate.inputs:
            value += max(map(arrival.__getitem__, gate.inputs))
        if arrival.get(gate.name) == value:
            return False
        arrival[gate.name] = value
        return True

    def _gate_delay(self, gate: Gate) -> float:
        """The gate's delay, summing its load as ``driven_loads`` does."""
        level, gates = self._level, self._gates
        reach = level[gate.name] + 1
        load = 0.0
        span = 0
        for consumer, pins in self._consumers.get(gate.name, {}).items():
            cap = gates[consumer].cell.input_cap
            for _ in range(pins):
                load += cap
            if level[consumer] > reach:
                span += level[consumer] - reach
        if gate.name in self._output_set:
            load += OUTPUT_PAD_LOAD
        return DEFAULT_DELAY_MODEL.cell_delay(gate.cell, load, span)
