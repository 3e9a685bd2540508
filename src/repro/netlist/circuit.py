"""Gate-level combinational netlist model.

A :class:`Circuit` is a named DAG of library gates.  Nets are identified by
strings; each gate's *name* doubles as the name of its output net (single
driver per net, as in structural Verilog).  Primary inputs are undriven nets;
primary outputs are references to driven nets (or to primary inputs, for
feed-through ports).

Mutation is explicit (``add_gate`` / ``remove_gate`` / ``replace_gate``) and
bumps an internal version counter that invalidates cached derived structures
(topological order, fanout map, levels).  All analyses in the library go
through those cached queries, so repeated measurements of an unchanged
circuit are cheap.  The gate table keeps insertion order, and
``replace_gate`` puts the gate back at its end, so ``reversed(circuit)``
lists first the gates an edit added or replaced;
:class:`~repro.timing.incremental.IncrementalTimer`, which re-times the
paper's reactive heuristic after every candidate fingerprint removal,
finds what an edit changed that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cells.library import Cell, CellLibrary
from ..cells.generic_lib import GENERIC_LIB
from ..errors import ReproError


class NetlistError(ReproError, ValueError):
    """Structural error in a netlist (missing driver, cycle, duplicate...)."""


@dataclass(frozen=True)
class Gate:
    """One gate instance; ``name`` is also its output net name."""

    name: str
    cell: Cell
    inputs: Tuple[str, ...]

    @property
    def kind(self) -> str:
        """Gate kind string (Boolean function family)."""
        return self.cell.kind

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def __post_init__(self) -> None:
        if len(self.inputs) != self.cell.n_inputs:
            raise NetlistError(
                f"gate {self.name}: cell {self.cell.name} expects "
                f"{self.cell.n_inputs} inputs, got {len(self.inputs)}"
            )


class Circuit:
    """A combinational gate-level netlist over a cell library."""

    def __init__(
        self,
        name: str,
        library: Optional[CellLibrary] = None,
    ) -> None:
        self.name = name
        self.library = library if library is not None else GENERIC_LIB
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._input_set: set = set()
        self._version = 0
        self._cache: Dict[str, tuple] = {}

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> List[str]:
        """Primary input net names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        """Primary output net names, in declaration order."""
        return list(self._outputs)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural mutation."""
        return self._version

    def _touch(self) -> None:
        self._version += 1
        self._cache.clear()

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._input_set:
            raise NetlistError(f"duplicate primary input {net!r}")
        if net in self._gates:
            raise NetlistError(f"net {net!r} is already driven by a gate")
        self._inputs.append(net)
        self._input_set.add(net)
        self._touch()
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        """Declare several primary inputs; returns them as a list."""
        return [self.add_input(net) for net in nets]

    def add_output(self, net: str) -> str:
        """Declare ``net`` (a PI or gate output, possibly future) as a PO."""
        if net in self._outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self._outputs.append(net)
        self._touch()
        return net

    def add_outputs(self, nets: Iterable[str]) -> List[str]:
        """Declare several primary outputs; returns them as a list."""
        return [self.add_output(net) for net in nets]

    def add_gate(
        self,
        name: str,
        kind: str,
        inputs: Sequence[str],
        cell: Optional[Cell] = None,
    ) -> Gate:
        """Create a gate driving net ``name``.

        The cell is resolved from the library by (kind, arity) unless given
        explicitly.  Input nets need not exist yet (forward references are
        resolved by :meth:`validate`).
        """
        if name in self._gates:
            raise NetlistError(f"net {name!r} already driven")
        if name in self._input_set:
            raise NetlistError(f"net {name!r} is a primary input")
        if cell is None:
            cell = self.library.find(kind, len(inputs))
        elif cell.kind != kind or cell.n_inputs != len(inputs):
            raise NetlistError(
                f"gate {name}: cell {cell.name} does not match "
                f"kind={kind} arity={len(inputs)}"
            )
        gate = Gate(name=name, cell=cell, inputs=tuple(inputs))
        self._gates[name] = gate
        self._touch()
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove the gate driving net ``name``.

        The net may still be referenced by other gates or outputs; callers
        removing live logic are responsible for re-wiring first (use
        :meth:`fanouts` to check).
        """
        try:
            gate = self._gates.pop(name)
        except KeyError:
            raise NetlistError(f"no gate drives net {name!r}")
        self._touch()
        return gate

    def replace_gate(
        self,
        name: str,
        kind: str,
        inputs: Sequence[str],
        cell: Optional[Cell] = None,
    ) -> Gate:
        """Swap the gate driving ``name`` for a new kind/input list.

        The new gate goes to the end of the gate table, like an added one.
        """
        if name not in self._gates:
            raise NetlistError(f"no gate drives net {name!r}")
        del self._gates[name]
        return self.add_gate(name, kind, inputs, cell=cell)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def is_input(self, net: str) -> bool:
        """True when ``net`` is a primary input."""
        return net in self._input_set

    def is_output(self, net: str) -> bool:
        """True when ``net`` is a primary output."""
        return net in self._outputs

    def has_net(self, net: str) -> bool:
        """True when ``net`` is a PI or driven by a gate."""
        return net in self._input_set or net in self._gates

    def gate(self, name: str) -> Gate:
        """Return the gate driving net ``name``."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate drives net {name!r}")

    def driver(self, net: str) -> Optional[Gate]:
        """The driving gate of ``net``, or ``None`` for primary inputs."""
        return self._gates.get(net)

    @property
    def gates(self) -> List[Gate]:
        """All gates (unordered snapshot)."""
        return list(self._gates.values())

    def gate_names(self) -> List[str]:
        """Names of all gate-driven nets (unordered snapshot)."""
        return list(self._gates.keys())

    def __contains__(self, net: str) -> bool:
        return self.has_net(net)

    def __len__(self) -> int:
        return len(self._gates)

    @property
    def n_gates(self) -> int:
        """Number of gate instances."""
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def __reversed__(self) -> Iterator[Gate]:
        """Gates from the most recently added or replaced one backwards."""
        return reversed(self._gates.values())

    # ------------------------------------------------------------------ #
    # cached derived structures
    # ------------------------------------------------------------------ #

    def cached(self, key: str, compute) -> object:
        """Version-keyed cache for derived structures.

        Returns the cached value for ``key`` when it was computed at the
        current :attr:`version`; otherwise calls ``compute()``, stores the
        result, and returns it.  Any structural mutation clears the whole
        cache, so external analyses (e.g. :func:`repro.ir.compile_circuit`)
        can hook their derived data into the same invalidation contract as
        the built-in topological order / fanout / level queries.
        """
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        value = compute()
        self._cache[key] = (self._version, value)
        return value

    def topological_order(self) -> List[Gate]:
        """Gates ordered so every gate follows all of its drivers.

        Raises :class:`NetlistError` on combinational cycles or references
        to undriven, non-PI nets.
        """
        return self.cached("topo", self._compute_topo)

    def _compute_topo(self) -> List[Gate]:
        in_degree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            count = 0
            for net in gate.inputs:
                if net in self._gates:
                    count += 1
                    dependents.setdefault(net, []).append(gate.name)
                elif net not in self._input_set:
                    raise NetlistError(
                        f"gate {gate.name}: input net {net!r} has no driver"
                    )
            in_degree[gate.name] = count
        ready = [name for name, deg in in_degree.items() if deg == 0]
        order: List[Gate] = []
        while ready:
            name = ready.pop()
            order.append(self._gates[name])
            for dep in dependents.get(name, ()):
                in_degree[dep] -= 1
                if in_degree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            cyclic = sorted(n for n, d in in_degree.items() if d > 0)
            raise NetlistError(f"combinational cycle through {cyclic[:5]}")
        return order

    def fanouts(self, net: Optional[str] = None):
        """Fanout map ``net -> [consumer gate names]`` (or one net's list).

        Primary outputs are *not* counted as fanouts; use
        :meth:`fanout_count` for a load measure that includes PO loads.
        """
        table: Dict[str, List[str]] = self.cached("fanouts", self._compute_fanouts)
        if net is None:
            return table
        return list(table.get(net, ()))

    def _compute_fanouts(self) -> Dict[str, List[str]]:
        table: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            for net in gate.inputs:
                table.setdefault(net, []).append(gate.name)
        return table

    def fanout_count(self, net: str) -> int:
        """Electrical fanout: consumer gates plus primary-output loads."""
        loads = len(self.fanouts(net))
        if net in self._outputs:
            loads += self._outputs.count(net)
        return loads

    def levels(self) -> Dict[str, int]:
        """Logic level (depth) of every net; PIs at level 0."""
        return self.cached("levels", self._compute_levels)

    def _compute_levels(self) -> Dict[str, int]:
        level: Dict[str, int] = {net: 0 for net in self._inputs}
        for gate in self.topological_order():
            if gate.inputs:
                level[gate.name] = 1 + max(level[n] for n in gate.inputs)
            else:
                level[gate.name] = 0
        return level

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for an empty circuit)."""
        levels = self.levels()
        return max(levels.values()) if levels else 0

    # ------------------------------------------------------------------ #
    # validation / copying
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check structural well-formedness; raises :class:`NetlistError`.

        Verifies: no net is driven both by a gate and declared a primary
        input (double driver), every gate record is internally consistent
        (map key matches gate name, arity matches the cell), every gate
        input and every primary output is driven (by a gate or a PI), and
        the gate graph is acyclic.  The checks also hold against corrupted
        internal state (as produced by :mod:`repro.faultinject`), not just
        against misuse of the mutation API.
        """
        double = sorted(self._input_set & set(self._gates))
        if double:
            raise NetlistError(
                f"net(s) driven by both a gate and a primary input: "
                f"{double[:5]}",
                net=double[0],
            )
        for name, gate in self._gates.items():
            if gate.name != name:
                raise NetlistError(
                    f"gate table corrupt: key {name!r} holds gate {gate.name!r}",
                    gate=name,
                )
            if len(gate.inputs) != gate.cell.n_inputs:
                raise NetlistError(
                    f"gate {name}: cell {gate.cell.name} expects "
                    f"{gate.cell.n_inputs} inputs, got {len(gate.inputs)}",
                    gate=name,
                )
        self.topological_order()  # checks drivers + acyclicity
        for net in self._outputs:
            if not self.has_net(net):
                raise NetlistError(
                    f"primary output {net!r} has no driver", net=net
                )

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Deep-copy the netlist (gates are immutable and shared)."""
        other = Circuit(name or self.name, self.library)
        other._inputs = list(self._inputs)
        other._input_set = set(self._input_set)
        other._outputs = list(self._outputs)
        other._gates = dict(self._gates)
        other._touch()
        return other

    def stats(self) -> Dict[str, float]:
        """Coarse structural statistics used in reports and tests."""
        kind_histogram: Dict[str, int] = {}
        for gate in self._gates.values():
            kind_histogram[gate.kind] = kind_histogram.get(gate.kind, 0) + 1
        return {
            "name": self.name,
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": len(self._gates),
            "depth": self.depth() if self._gates else 0,
            "kinds": kind_histogram,
        }

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={len(self._gates)})"
        )
