"""Observability Don't Care analysis (paper §III.A, Eq. 1).

The fingerprinting method needs, per gate input, the *local* ODC set: the
assignments of the gate's other inputs under which that input cannot be
observed at the gate output.  For library kinds this is derived generically
from the kind's truth table, so adding a cell to the library automatically
yields its ODC behaviour (the paper's Table I is a special case).

For standard controlling-value gates the local ODC w.r.t. input ``x`` is
"some *other* input sits at the controlling value"; e.g. for a 2-input AND,
``ODC_x = y'`` exactly as the paper derives.

The flow itself does not call this module: the location finder reads
controlling values from :mod:`repro.cells.functions`, and Definition 1
makes every location unobservable by construction (see
:mod:`repro.fingerprint.locations`).  It stays because it is the paper's
Eq. 1 and Table I in executable form, derived from truth tables alone,
and so cross-checks the controlling-value rules of
:mod:`repro.cells.functions` that the finder relies on
(``tests/test_logic_odc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..cells import functions
from ..ir import compile_circuit
from ..netlist.circuit import Circuit, Gate
from .truthtable import TruthTable

#: Variable names used for kind-level (anonymous) ODC tables.
_PLACEHOLDER = tuple(f"in{i}" for i in range(12))


def local_odc(kind: str, n_inputs: int, position: int) -> TruthTable:
    """ODC set of ``kind``'s input ``position`` over placeholder variables.

    The returned table ranges over all ``n_inputs`` placeholder variables
    but never depends on ``in<position>`` itself (an ODC condition is a
    function of the other inputs only).
    """
    if not 0 <= position < n_inputs:
        raise ValueError(f"input position {position} out of range")
    table = TruthTable.from_kind(kind, _PLACEHOLDER[:n_inputs])
    return table.odc(_PLACEHOLDER[position])


def has_nonzero_odc(kind: str, n_inputs: int, position: Optional[int] = None) -> bool:
    """True when the ODC set is non-empty (for one input or any input)."""
    positions = range(n_inputs) if position is None else [position]
    return any(not local_odc(kind, n_inputs, p).is_contradiction() for p in positions)


def gate_input_odc(gate: Gate, position: int) -> TruthTable:
    """Local ODC of ``gate``'s input ``position`` over its real net names.

    Note: when a net feeds the gate on several pins the placeholder
    renaming would alias variables, so such gates are analyzed on the
    kind-level table instead; callers in the fingerprinting engine filter
    these out (they are rare and never useful locations).
    """
    if len(set(gate.inputs)) != len(gate.inputs):
        raise ValueError(f"gate {gate.name} has repeated input nets")
    anonymous = local_odc(gate.kind, gate.n_inputs, position)
    mapping = dict(zip(_PLACEHOLDER[: gate.n_inputs], gate.inputs))
    renamed = TruthTable(
        tuple(mapping[v] for v in anonymous.variables), anonymous.bits
    )
    return renamed


@dataclass(frozen=True)
class TriggerCondition:
    """How one gate input can activate the ODC of another input.

    Attributes:
        target_position: The input whose value becomes unobservable.
        trigger_position: The input whose value activates the ODC.
        trigger_value: The value of the trigger input that, by itself,
            guarantees the ODC condition (the gate's controlling value).
    """

    target_position: int
    trigger_position: int
    trigger_value: int


def single_input_triggers(gate: Gate) -> List[TriggerCondition]:
    """All (target, trigger) pairs where one input alone blocks another.

    For controlling-value kinds every ordered pair of distinct inputs
    qualifies with the controlling value as trigger value.  Kinds without a
    controlling value (XOR/XNOR/INV/BUF) yield none — their Boolean
    difference is a tautology, matching the paper's observation that such
    gates never create ODCs.
    """
    control = functions.controlling_value(gate.kind)
    if control is None or gate.n_inputs < 2:
        return []
    conditions = []
    for target in range(gate.n_inputs):
        for trigger in range(gate.n_inputs):
            if target != trigger:
                conditions.append(TriggerCondition(target, trigger, control))
    return conditions


def gate_creates_odc(gate: Gate) -> bool:
    """True when the gate has any input with a non-zero ODC set."""
    return functions.has_odc(gate.kind, gate.n_inputs)


@lru_cache(maxsize=None)
def _odc_positions(kind: str, n_inputs: int) -> Tuple[int, ...]:
    """Input positions of ``kind`` with non-empty local ODC sets.

    The answer depends only on the (kind, arity) pair — never on the
    instance — so the truth-table work is paid once per distinct cell
    shape across the whole process, not once per gate.
    """
    return tuple(
        p for p in range(n_inputs) if has_nonzero_odc(kind, n_inputs, p)
    )


def odc_summary(circuit: Circuit) -> Dict[str, List[int]]:
    """Map gate name -> input positions with non-empty local ODC sets.

    Iterates the compiled IR's topological gate order (one shared,
    version-cached compilation — not a fresh traversal per gate) and
    memoizes the per-(kind, arity) truth-table analysis, so a summary
    costs O(gates) dictionary work after the first call.
    """
    summary: Dict[str, List[int]] = {}
    for gate in compile_circuit(circuit).gates_in_order():
        positions = _odc_positions(gate.kind, gate.n_inputs)
        if positions:
            summary[gate.name] = list(positions)
    return summary


def odc_gate_table(library) -> Dict[str, bool]:
    """The library-wide ODC table (reproduces the role of paper Table I).

    Maps cell name -> whether the cell's inputs carry non-zero ODCs.
    """
    return {cell.name: cell.has_odc for cell in library}
