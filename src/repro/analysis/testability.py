"""SCOAP testability measures (Goldstein's controllability/observability).

The classic static testability analysis: per net, the combinational
0-controllability ``CC0`` and 1-controllability ``CC1`` (minimum "effort"
to set the net to 0/1, counted in gate traversals) and the combinational
observability ``CO`` (effort to propagate the net's value to a primary
output).  Primary inputs cost 1 to control; a primary output costs 0 to
observe.

In this reproduction SCOAP serves two purposes: it is the standard
sanity-check companion to the exact/Monte-Carlo observability engines
(hard-to-observe nets by SCOAP must also show low simulated
observability), and it quantifies the fingerprinting intuition that ODC
trigger taps are cheap to exercise — triggers chosen at low depth have
low controllability cost, so the fingerprint's distinguishing states are
easy to reach when the IP owner wants to compare two copies on a tester.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cells import functions
from ..ir import compile_circuit
from ..netlist.circuit import Circuit

#: Effort value used for unreachable/undefined cases.
INFINITY = float("inf")


def controllability(circuit: Circuit) -> Dict[str, Tuple[float, float]]:
    """SCOAP ``(CC0, CC1)`` per net; primary inputs are ``(1, 1)``."""
    cc: Dict[str, Tuple[float, float]] = {
        net: (1.0, 1.0) for net in circuit.inputs
    }
    for gate in compile_circuit(circuit).gates_in_order():
        cc[gate.name] = _gate_controllability(gate.kind, [cc[n] for n in gate.inputs])
    return cc


def _gate_controllability(kind: str, inputs) -> Tuple[float, float]:
    if kind == "CONST0":
        return (0.0, INFINITY)
    if kind == "CONST1":
        return (INFINITY, 0.0)
    if kind == "BUF":
        cc0, cc1 = inputs[0]
        return (cc0 + 1.0, cc1 + 1.0)
    if kind == "INV":
        cc0, cc1 = inputs[0]
        return (cc1 + 1.0, cc0 + 1.0)
    base = functions.base_operator(kind)
    if base == "AND":
        # output 0: cheapest single 0-input; output 1: all inputs 1.
        out0 = min(c0 for c0, _ in inputs) + 1.0
        out1 = sum(c1 for _, c1 in inputs) + 1.0
    elif base == "OR":
        out0 = sum(c0 for c0, _ in inputs) + 1.0
        out1 = min(c1 for _, c1 in inputs) + 1.0
    else:  # XOR family: parity over all inputs; take the cheapest parity mix
        even, odd = 0.0, INFINITY
        for c0, c1 in inputs:
            new_even = min(even + c0, odd + c1)
            new_odd = min(even + c1, odd + c0)
            even, odd = new_even, new_odd
        out0, out1 = even + 1.0, odd + 1.0
    if functions.is_inverting(kind):
        out0, out1 = out1, out0
    return (out0, out1)


def observability(
    circuit: Circuit,
    cc: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Dict[str, float]:
    """SCOAP ``CO`` per net; primary outputs observe at cost 0.

    To observe a gate input, the gate's other inputs must be set to their
    non-controlling values and the gate's own output must be observable.
    """
    if cc is None:
        cc = controllability(circuit)
    co: Dict[str, float] = {}
    for net in list(circuit.inputs) + circuit.gate_names():
        co[net] = 0.0 if circuit.is_output(net) else INFINITY
    for gate in reversed(compile_circuit(circuit).gates_in_order()):
        out_co = co[gate.name]
        if out_co == INFINITY:
            continue
        kind = gate.kind
        if kind in ("CONST0", "CONST1"):
            continue
        if kind in ("BUF", "INV"):
            candidate = out_co + 1.0
            net = gate.inputs[0]
            if candidate < co[net]:
                co[net] = candidate
            continue
        base = functions.base_operator(kind)
        for position, net in enumerate(gate.inputs):
            side_cost = 0.0
            for other_position, other in enumerate(gate.inputs):
                if other_position == position:
                    continue
                cc0, cc1 = cc[other]
                if base == "AND":
                    side_cost += cc1  # others at non-controlling 1
                elif base == "OR":
                    side_cost += cc0  # others at non-controlling 0
                else:  # XOR: any fixed values work; take the cheaper
                    side_cost += min(cc0, cc1)
            candidate = out_co + side_cost + 1.0
            if candidate < co[net]:
                co[net] = candidate
    return co


def testability_report(circuit: Circuit) -> Dict[str, Dict[str, float]]:
    """Per-net ``{"cc0", "cc1", "co"}`` summary."""
    cc = controllability(circuit)
    co = observability(circuit, cc)
    return {
        net: {"cc0": cc[net][0], "cc1": cc[net][1], "co": co[net]}
        for net in cc
    }


def hardest_nets(circuit: Circuit, count: int = 10) -> list:
    """The ``count`` nets with the largest finite CO (hardest to observe)."""
    co = observability(circuit)
    finite = [(value, net) for net, value in co.items() if value < INFINITY]
    finite.sort(reverse=True)
    return [net for _, net in finite[:count]]
