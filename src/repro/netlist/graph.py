"""Graph analyses over netlists: cones, fanout-free cones, networkx export.

These are the structural primitives behind Definition 1 of the paper: a
fingerprint location needs an input that is the output of a *fanout-free
cone* (FFC), so FFC extraction is on the hot path of location finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from .circuit import Circuit, Gate

if TYPE_CHECKING:  # pragma: no cover - networkx is imported on use
    import networkx


def transitive_fanin(circuit: Circuit, net: str, include_inputs: bool = True) -> Set[str]:
    """All nets feeding ``net`` transitively, including ``net`` itself."""
    seen: Set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        gate = circuit.driver(current)
        if gate is not None:
            stack.extend(gate.inputs)
    if not include_inputs:
        seen = {n for n in seen if not circuit.is_input(n)}
    return seen


def transitive_fanout(circuit: Circuit, net: str) -> Set[str]:
    """All nets driven (transitively) by ``net``, including ``net`` itself."""
    seen: Set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(circuit.fanouts(current))
    return seen


def output_cone(circuit: Circuit, net: str) -> List[Gate]:
    """Gates in the transitive fanin of ``net``, in topological order."""
    cone_nets = transitive_fanin(circuit, net)
    return [g for g in circuit.topological_order() if g.name in cone_nets]


def is_single_fanout(circuit: Circuit, net: str) -> bool:
    """True when exactly one gate consumes ``net`` and it is not a PO."""
    return len(circuit.fanouts(net)) == 1 and not circuit.is_output(net)


def fanout_free_cone(circuit: Circuit, root: str) -> Set[str]:
    """The maximum fanout-free cone (MFFC) rooted at gate-output ``root``.

    Returns the set of gate names whose output is consumed only inside the
    cone (the root itself is always included).  Primary inputs are never
    part of the cone.  A gate ``g`` belongs to the MFFC of ``root`` iff
    every path from ``g`` to a primary output passes through ``root`` —
    equivalently, all of ``g``'s fanouts are in the cone and ``g`` is not a
    primary output (except possibly ``root``).
    """
    if circuit.driver(root) is None:
        return set()
    cone: Set[str] = {root}
    # Work inward from the root; a candidate joins when all its consumers
    # are already in the cone and it does not feed a primary output.
    changed = True
    while changed:
        changed = False
        frontier: Set[str] = set()
        for name in cone:
            frontier.update(circuit.gate(name).inputs)
        for net in frontier:
            if net in cone or circuit.driver(net) is None:
                continue
            if circuit.is_output(net):
                continue
            consumers = circuit.fanouts(net)
            if consumers and all(c in cone for c in consumers):
                cone.add(net)
                changed = True
    return cone


def ffc_members(circuit: Circuit, root: str) -> List[Gate]:
    """Gates of the MFFC of ``root``, topologically ordered."""
    names = fanout_free_cone(circuit, root)
    return [g for g in circuit.topological_order() if g.name in names]


def to_networkx(circuit: Circuit) -> "networkx.DiGraph":
    """Export the netlist as a ``networkx.DiGraph``.

    Nodes are net names with a ``type`` attribute (``"input"`` or the gate
    kind); edges run from driver net to consumer gate output.  networkx
    is imported here, not with the package, so ``import repro`` stays
    light.
    """
    import networkx

    graph = networkx.DiGraph(name=circuit.name)
    for net in circuit.inputs:
        graph.add_node(net, type="input")
    for gate in circuit.gates:
        graph.add_node(gate.name, type=gate.kind, cell=gate.cell.name)
    for gate in circuit.gates:
        for net in gate.inputs:
            graph.add_edge(net, gate.name)
    return graph


def longest_path_length(circuit: Circuit) -> int:
    """Length (in gates) of the longest PI-to-PO topological path."""
    return circuit.depth()


def fanout_histogram(circuit: Circuit) -> Dict[int, int]:
    """Histogram ``fanout_count -> number of nets`` over all driven nets."""
    histogram: Dict[int, int] = {}
    for net in list(circuit.inputs) + circuit.gate_names():
        count = circuit.fanout_count(net)
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


def dangling_nets(circuit: Circuit) -> List[str]:
    """Driven nets consumed by no gate and no primary output."""
    return [
        name
        for name in circuit.gate_names()
        if not circuit.fanouts(name) and not circuit.is_output(name)
    ]
