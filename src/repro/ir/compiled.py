"""Compiled-circuit IR: one interned, array-based analysis substrate.

A :class:`CompiledCircuit` lowers a :class:`~repro.netlist.circuit.Circuit`
into flat numpy arrays over *interned net IDs*:

* nets are numbered densely — primary inputs first (declaration order),
  then gate outputs in topological order, so every gate's fanins have
  strictly smaller IDs than its output;
* gate kinds are small integer codes (:mod:`repro.ir.kernels`);
* fanin and fanout adjacency are CSR ``(offsets, indices)`` pairs;
* logic levels are a flat ``int32`` array;
* gates are pre-grouped into per-level, per-kind, per-arity *batches* so
  a whole batch evaluates in one numpy reduction.

Compilation is cached on :attr:`Circuit.version` through
:meth:`Circuit.cached` — the same contract as every other derived
structure, generalized from the old ``Simulator._topology`` pattern —
so any structural edit (``add_gate`` / ``remove_gate`` /
``replace_gate``) invalidates it automatically and the next
:func:`compile_circuit` call rebuilds.  Consumers must therefore never
hold a :class:`CompiledCircuit` across circuit mutations; re-request it
instead (re-requesting an unchanged circuit is a dict hit).  The IR
keeps no reference to its circuit: the circuit's cache holds the IR, so
a back-reference would make a cycle only the cyclic garbage collector
frees.

This is the shared substrate behind simulation, ODC/observability
search, power, SCOAP and CNF encoding; see
``docs/ARCHITECTURE.md`` for the consumer contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..netlist.circuit import Circuit, Gate
from . import kernels

_INVERTING_CODES = kernels.INVERTING_CODES
_ALL_ONES = int(kernels.ALL_ONES)


def _offsets(rows: List[List[int]]) -> np.ndarray:
    """CSR offsets of ``rows``: ``len(rows) + 1`` running totals from 0."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int32, count=len(rows)),
              out=offsets[1:])
    return offsets


@dataclass(frozen=True)
class Batch:
    """Same-level, same-operator-family gates evaluated in one reduction.

    ``out_ids`` are the batch's output net IDs; ``fanins`` is a
    ``(len(out_ids), arity)`` matrix of input net IDs.  AND-family rows
    below the batch arity are padded by repeating their last fanin
    (idempotent under ``&``/``|``); ``invert`` is the per-row output
    complement mask (``ALL_ONES`` for NAND/NOR/XNOR/INV rows) and
    ``arities`` the per-row true (pre-padding) arity.

    Rows are sorted by descending arity, so evaluation accumulates
    column-by-column over a shrinking row *prefix*: ``col_counts[i]``
    is the number of rows whose true arity exceeds ``i``, and column
    ``i`` only touches rows ``[:col_counts[i]]`` — padded positions are
    never read.  Constant batches have ``arity == 0`` and ``op`` of
    ``None``; ``invert`` then holds the fill word.
    """

    level: int
    op: object  # OP_AND | OP_OR | OP_XOR | None (constants)
    arity: int
    out_ids: np.ndarray
    fanins: np.ndarray
    invert: np.ndarray
    arities: np.ndarray
    col_counts: np.ndarray


class CompiledCircuit:
    """Array-based view of one circuit version (see module docstring)."""

    def __init__(self, circuit: Circuit) -> None:
        self.version = circuit.version
        order = circuit.topological_order()
        inputs = circuit.inputs

        self.n_inputs = n_inputs = len(inputs)
        self.n_gates = len(order)
        self.n_nets = n_nets = self.n_inputs + self.n_gates

        #: Net names, indexed by interned ID.
        self.names: Tuple[str, ...] = tuple(inputs) + tuple(g.name for g in order)
        #: Interning map ``name -> ID``.
        self.ids: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        #: Gate objects in topological order; gate ``i`` drives net
        #: ``n_inputs + i``.
        self.order: Tuple[Gate, ...] = tuple(order)

        # One topological pass gathers every table in plain lists, and
        # each numpy array is built once from them.  Per gate: its fanin
        # row, kind code, level (PIs at 0) and evaluation group; per net:
        # its consumers' IDs, appended in ascending order as IDs are
        # topological.  Gates group per level by operator *family* (see
        # kernels.FAMILY_OP): XOR-family additionally by arity (padding
        # would flip parity), constants by their fill value.
        ids = self.ids
        kinds: List[int] = [kernels.INPUT] * n_inputs
        levels: List[int] = [0] * n_inputs
        rows: List[List[int]] = [[] for _ in range(n_inputs)]
        fanout_lists: List[List[int]] = [[] for _ in range(n_nets)]
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for out, gate in enumerate(order, n_inputs):
            row = [ids[net] for net in gate.inputs]
            code = kernels.code_of(gate.kind)
            level = 1 + max([levels[net] for net in row]) if row else 0
            for net in row:
                fanout_lists[net].append(out)
            rows.append(row)
            kinds.append(code)
            levels.append(level)
            if code in (kernels.CODE_CONST0, kernels.CODE_CONST1):
                key = (level, 10 + code, 0)
            elif kernels.FAMILY_OP[code] == kernels.OP_XOR:
                key = (level, kernels.OP_XOR, len(row))
            else:
                key = (level, kernels.FAMILY_OP[code], -1)  # arity-merged
            groups.setdefault(key, []).append(out)

        self.kinds = np.array(kinds, dtype=np.int16)
        # CSR fanins (per net; PIs contribute empty rows) and fanouts
        # (consumer *gate output* IDs per net, ascending).
        self.fanin_offsets = _offsets(rows)
        self.fanin_ids = np.array(list(chain.from_iterable(rows)), dtype=np.int32)
        self.fanout_offsets = _offsets(fanout_lists)
        self.fanout_ids = np.array(
            list(chain.from_iterable(fanout_lists)), dtype=np.int32
        )
        self.levels = np.array(levels, dtype=np.int32)

        batches: List[Batch] = []
        for (level, group_code, group_arity), outs in sorted(groups.items()):
            if group_code >= 10:  # constants: invert carries the fill word
                code = group_code - 10
                fill = kernels.ALL_ONES if code == kernels.CODE_CONST1 else np.uint64(0)
                batches.append(
                    Batch(level, None, 0, np.array(outs, dtype=np.int32),
                          np.zeros((len(outs), 0), dtype=np.int32),
                          np.full(len(outs), fill, dtype=np.uint64),
                          np.zeros(len(outs), dtype=np.int32),
                          np.zeros(0, dtype=np.int32))
                )
                continue
            # Widest rows first: column i of the evaluation then touches
            # only the prefix of rows with arity > i.  ``outs`` ascends,
            # so a stable sort keeps equal arities in ID order.
            if group_arity < 0:
                outs.sort(key=lambda out: -len(rows[out]))
            fanins = [rows[out] for out in outs]
            arities = [len(row) for row in fanins]
            arity = arities[0]
            col_counts: List[int] = []
            count = len(outs)
            for i in range(arity):
                while arities[count - 1] <= i:
                    count -= 1
                col_counts.append(count)
            if arities[-1] < arity:  # pad: idempotent under & and |
                fanins = [row + row[-1:] * (arity - len(row)) for row in fanins]
            invert = [
                _ALL_ONES if kinds[out] in _INVERTING_CODES else 0 for out in outs
            ]
            batches.append(
                Batch(
                    level,
                    group_code,
                    arity,
                    np.array(outs, dtype=np.int32),
                    np.array(
                        list(chain.from_iterable(fanins)), dtype=np.int32
                    ).reshape(len(outs), arity),
                    np.array(invert, dtype=np.uint64),
                    np.array(arities, dtype=np.int32),
                    np.array(col_counts, dtype=np.int32),
                )
            )
        #: Evaluation schedule: batches in ascending level order.
        self.batches: Tuple[Batch, ...] = tuple(batches)

        self._output_ids = np.array(
            [ids[net] for net in circuit.outputs], dtype=np.int32
        )
        self._cone_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # ID/name queries
    # ------------------------------------------------------------------ #

    def id_of(self, net: str) -> int:
        """Interned ID of a net name."""
        try:
            return self.ids[net]
        except KeyError:
            raise KeyError(f"unknown net {net!r}")

    def name_of(self, net_id: int) -> str:
        """Net name of an interned ID."""
        return self.names[net_id]

    def gate_of(self, net_id: int) -> Gate:
        """The gate driving net ``net_id`` (IDs below ``n_inputs`` are PIs)."""
        if net_id < self.n_inputs:
            raise KeyError(f"net {self.names[net_id]!r} is a primary input")
        return self.order[net_id - self.n_inputs]

    @property
    def output_ids(self) -> np.ndarray:
        """Primary-output net IDs in declaration order."""
        return self._output_ids

    def is_input_id(self, net_id: int) -> bool:
        """True when the ID names a primary input."""
        return net_id < self.n_inputs

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    def fanin_row(self, net_id: int) -> np.ndarray:
        """Input net IDs of the gate driving ``net_id`` (CSR slice view)."""
        return self.fanin_ids[self.fanin_offsets[net_id] : self.fanin_offsets[net_id + 1]]

    def fanout_row(self, net_id: int) -> np.ndarray:
        """Consumer gate-output IDs of ``net_id`` (CSR slice view)."""
        return self.fanout_ids[
            self.fanout_offsets[net_id] : self.fanout_offsets[net_id + 1]
        ]

    def levels_by_name(self) -> Dict[str, int]:
        """Levels as a plain ``name -> level`` dict (compat view)."""
        return {name: int(self.levels[i]) for i, name in enumerate(self.names)}

    def gates_in_order(self) -> Tuple[Gate, ...]:
        """All gates in topological order (shared tuple — do not mutate)."""
        return self.order

    def gates_sorted(self, names: Iterable[str]) -> List[Gate]:
        """Gate objects for ``names``, sorted topologically (by ID)."""
        picked = sorted(self.ids[name] for name in names)
        return [self.gate_of(net_id) for net_id in picked]

    def fanout_cone(self, net: str) -> np.ndarray:
        """Transitive-fanout gate IDs of ``net`` in topological order.

        The seed net itself is excluded; because IDs are topologically
        numbered, the ascending-ID result *is* an evaluation order.
        Results are memoized per compiled version.
        """
        seed = self.id_of(net)
        cached = self._cone_cache.get(seed)
        if cached is not None:
            return cached
        seen = np.zeros(self.n_nets, dtype=bool)
        stack = list(self.fanout_row(seed))
        members: List[int] = []
        while stack:
            current = stack.pop()
            if seen[current]:
                continue
            seen[current] = True
            members.append(current)
            stack.extend(self.fanout_row(current))
        cone = np.asarray(sorted(members), dtype=np.int32)
        self._cone_cache[seed] = cone
        return cone

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def run_matrix(self, input_rows: np.ndarray) -> np.ndarray:
        """Evaluate all gates over packed words, level batch by batch.

        ``input_rows`` is a ``(n_inputs, words)`` uint64 matrix (row ``i``
        is the packed stimulus of primary input ``i``).  Returns the full
        ``(n_nets, words)`` value matrix; row ``id`` holds the packed
        values of net ``id``.
        """
        width = input_rows.shape[1] if input_rows.ndim == 2 else 1
        values = np.empty((self.n_nets, max(width, 1)), dtype=np.uint64)
        if self.n_inputs:
            values[: self.n_inputs] = input_rows
        for batch in self.batches:
            if batch.op is None:
                values[batch.out_ids] = batch.invert[:, None]
            else:
                values[batch.out_ids] = kernels.eval_family(
                    batch.op, values, batch.fanins, batch.invert, batch.col_counts
                )
        return values


def _compile(circuit: Circuit) -> CompiledCircuit:
    from .. import telemetry

    telemetry.count("ir.compile")
    return CompiledCircuit(circuit)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """The circuit's :class:`CompiledCircuit`, cached on its version.

    Cache hits are free; actual (re)compilations bump the ``ir.compile``
    metrics counter, so tests can assert how often a flow really pays
    for compilation.

    When an artifact store is active (:func:`repro.store.active_store`),
    a per-object miss consults the store's memory tier under the
    circuit's canonical structural digest before compiling, so a
    resubmission of an identical netlist (a different ``Circuit``
    object) reuses the earlier compilation.  Consumers only ever read a
    ``CompiledCircuit``, so sharing one across structurally identical
    circuit objects is sound.
    """

    def build() -> CompiledCircuit:
        from ..store.core import active_store

        store = active_store()
        if store is None:
            return _compile(circuit)
        from ..hashing import circuit_digest

        return store.get_or_compute(
            "ir", circuit_digest(circuit), lambda: _compile(circuit), disk=False
        )

    return circuit.cached("compiled_ir", build)
