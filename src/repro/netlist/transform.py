"""Netlist transformations: renaming, dead-code elimination, sweeping.

These mirror the clean-up passes an industrial mapper runs after structural
edits; the technology mapper and some benchmark generators rely on them to
emit tidy netlists, and tests use them to check that fingerprint embedding
introduces no dangling logic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cells import functions
from .circuit import Circuit, NetlistError


def rename_nets(circuit: Circuit, mapping: Dict[str, str], name: Optional[str] = None) -> Circuit:
    """Return a copy of ``circuit`` with nets renamed via ``mapping``.

    Nets absent from the mapping keep their names.  The mapping must not
    merge two distinct nets.
    """
    def translate(net: str) -> str:
        return mapping.get(net, net)

    targets = [translate(n) for n in list(circuit.inputs) + circuit.gate_names()]
    if len(set(targets)) != len(targets):
        raise NetlistError("rename_nets mapping merges distinct nets")

    out = Circuit(name or circuit.name, circuit.library)
    out.add_inputs(translate(n) for n in circuit.inputs)
    for gate in circuit.topological_order():
        out.add_gate(
            translate(gate.name),
            gate.kind,
            [translate(n) for n in gate.inputs],
            cell=gate.cell,
        )
    out.add_outputs(translate(n) for n in circuit.outputs)
    return out


def prefix_nets(circuit: Circuit, prefix: str, name: Optional[str] = None) -> Circuit:
    """Rename every net with a prefix (ports included)."""
    mapping = {n: prefix + n for n in list(circuit.inputs) + circuit.gate_names()}
    return rename_nets(circuit, mapping, name)


def eliminate_dead_gates(circuit: Circuit) -> int:
    """Remove gates whose output reaches no primary output, in place.

    Returns the number of gates removed.
    """
    live = set(circuit.outputs)
    stack = [n for n in circuit.outputs]
    while stack:
        net = stack.pop()
        gate = circuit.driver(net)
        if gate is None:
            continue
        for inp in gate.inputs:
            if inp not in live:
                live.add(inp)
                stack.append(inp)
    dead = [name for name in circuit.gate_names() if name not in live]
    for name in dead:
        circuit.remove_gate(name)
    return len(dead)


def sweep_buffers(circuit: Circuit) -> int:
    """Remove BUF gates by rewiring consumers to the buffer input, in place.

    Buffers driving primary outputs are kept (the PO name must survive).
    Returns the number of buffers removed.

    Gate-table order is observable and ``replace_gate`` moves a gate to
    the end, so each buffer's consumers are rewired in their current
    table order, once per pin that reads the buffer.  ``readers`` (net ->
    {consumer: pins}) holds that order for the whole sweep: a rewired
    consumer moves to the end of each of its input nets' entries.
    """
    readers: Dict[str, Dict[str, int]] = {}
    for gate in circuit:
        for net in gate.inputs:
            entry = readers.setdefault(net, {})
            entry[gate.name] = entry.get(gate.name, 0) + 1
    removed = 0
    for name in circuit.gate_names():
        gate = circuit.driver(name)  # re-fetch: earlier buffers rewire
        if gate is None or gate.kind != "BUF" or circuit.is_output(name):
            continue
        source = gate.inputs[0]
        for consumer_name, pins in readers.pop(name, {}).items():
            for _ in range(pins):
                consumer = circuit.gate(consumer_name)
                new_inputs = [source if n == name else n for n in consumer.inputs]
                circuit.replace_gate(consumer_name, consumer.kind, new_inputs, cell=consumer.cell)
            for net in set(new_inputs):
                entry = readers.setdefault(net, {})
                moved = entry.pop(consumer_name, 0)
                entry[consumer_name] = moved + pins if net == source else moved
        del readers[source][name]
        circuit.remove_gate(name)
        removed += 1
    return removed


def propagate_constants(circuit: Circuit) -> int:
    """Fold CONST0/CONST1 drivers through downstream gates, in place.

    A controlling constant collapses its consumer to a constant; an identity
    constant is dropped from the consumer's input list (narrowing the cell).
    Returns the number of gates rewritten.  Dead constant generators are
    left for :func:`eliminate_dead_gates`.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        const_nets: Dict[str, int] = {}
        for gate in circuit.gates:
            if gate.kind == "CONST0":
                const_nets[gate.name] = 0
            elif gate.kind == "CONST1":
                const_nets[gate.name] = 1
        if not const_nets:
            break
        for gate in list(circuit.gates):
            if gate.kind in ("CONST0", "CONST1"):
                continue
            values = [const_nets.get(n) for n in gate.inputs]
            if all(v is None for v in values):
                continue
            new_gate = _fold_gate(circuit, gate, values)
            if new_gate:
                rewrites += 1
                changed = True
    return rewrites


def _fold_gate(circuit: Circuit, gate, values: List[Optional[int]]) -> bool:
    """Rewrite one gate given known constant input values; True if changed."""
    kind = gate.kind
    if kind == "BUF" and values[0] is not None:
        const_kind = "CONST1" if values[0] else "CONST0"
        circuit.replace_gate(gate.name, const_kind, [])
        return True
    if kind == "INV" and values[0] is not None:
        const_kind = "CONST0" if values[0] else "CONST1"
        circuit.replace_gate(gate.name, const_kind, [])
        return True
    control = functions.controlling_value(kind)
    if control is not None and any(v == control for v in values):
        out = functions.controlled_output(kind)
        circuit.replace_gate(gate.name, "CONST1" if out else "CONST0", [])
        return True
    if kind in ("XOR", "XNOR"):
        ones = sum(1 for v in values if v == 1)
        keep = [n for n, v in zip(gate.inputs, values) if v is None]
        flip = (ones % 2 == 1) ^ (kind == "XNOR")
        if not keep:
            circuit.replace_gate(gate.name, "CONST1" if flip else "CONST0", [])
            return True
        if len(keep) == len(gate.inputs):
            return False
        if len(keep) == 1:
            circuit.replace_gate(gate.name, "INV" if flip else "BUF", keep)
            return True
        base = ("XNOR" if kind == "XOR" else "XOR") if flip else kind
        if circuit.library.try_find(base, len(keep)) is None:
            return False
        circuit.replace_gate(gate.name, base, keep)
        return True
    identity = functions.identity_value(kind)
    if identity is None:
        return False
    keep = [n for n, v in zip(gate.inputs, values) if v is None]
    if len(keep) == len(gate.inputs):
        return False
    if not keep:
        # All inputs at identity: AND()=1, OR()=0, inverted for NAND/NOR.
        high = (identity == 1) ^ functions.is_inverting(kind)
        circuit.replace_gate(gate.name, "CONST1" if high else "CONST0", [])
        return True
    if len(keep) == 1:
        unary = "INV" if functions.is_inverting(kind) else "BUF"
        circuit.replace_gate(gate.name, unary, keep)
        return True
    if circuit.library.try_find(kind, len(keep)) is None:
        return False
    circuit.replace_gate(gate.name, kind, keep)
    return True


def merge_duplicate_gates(circuit: Circuit) -> int:
    """Merge structurally identical gates (same kind, same input multiset).

    The netlist equivalent of AIG strashing: after the pass no two gates
    compute the same expression over the same nets, which also makes
    structural matching (rename-robust fingerprint extraction)
    unambiguous.  Gates driving primary outputs are preferred as the
    surviving representative; two PO-driving twins are left alone (both
    names must survive).  Returns the number of gates removed.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        signature_of: Dict[tuple, str] = {}
        for gate in circuit.topological_order():
            signature = (gate.kind, tuple(sorted(gate.inputs)))
            keeper_name = signature_of.get(signature)
            if keeper_name is None:
                signature_of[signature] = gate.name
                continue
            # Prefer keeping a PO-named gate.
            victim, keeper = gate.name, keeper_name
            if circuit.is_output(victim) and circuit.is_output(keeper):
                continue  # both observable under their own names
            if circuit.is_output(victim):
                victim, keeper = keeper, victim
                signature_of[signature] = keeper
            for consumer_name in list(circuit.fanouts(victim)):
                consumer = circuit.gate(consumer_name)
                circuit.replace_gate(
                    consumer_name,
                    consumer.kind,
                    [keeper if n == victim else n for n in consumer.inputs],
                    cell=consumer.cell,
                )
            circuit.remove_gate(victim)
            removed += 1
            changed = True
            break  # signatures are stale after a merge; restart the scan
    return removed


def has_duplicate_gates(circuit: Circuit, ignore_output_twins: bool = False) -> bool:
    """True when two gates share (kind, input multiset).

    ``ignore_output_twins`` skips twin groups whose members all drive
    primary outputs — the one kind of twin :func:`merge_duplicate_gates`
    must keep (both port names have to survive) and that port pinning
    disambiguates for structural matching.
    """
    groups: Dict[tuple, List[str]] = {}
    for gate in circuit.gates:
        signature = (gate.kind, tuple(sorted(gate.inputs)))
        groups.setdefault(signature, []).append(gate.name)
    for members in groups.values():
        if len(members) < 2:
            continue
        if ignore_output_twins and all(circuit.is_output(m) for m in members):
            continue
        return True
    return False


def cleanup(circuit: Circuit) -> Dict[str, int]:
    """Run constant propagation, buffer sweep and DCE to a fixed point."""
    totals = {"constants": 0, "buffers": 0, "dead": 0}
    while True:
        c = propagate_constants(circuit)
        b = sweep_buffers(circuit)
        d = eliminate_dead_gates(circuit)
        totals["constants"] += c
        totals["buffers"] += b
        totals["dead"] += d
        if c == b == d == 0:
            return totals
