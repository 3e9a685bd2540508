"""The element-by-element IR compile the compiled-IR differential compares with.

:class:`repro.ir.CompiledCircuit` gathers its tables in plain lists in one
topological pass and builds each numpy array once.  This module keeps the
constructor it replaced, verbatim: it sizes each array first and then
stores its elements one at a time, and reads levels and batch rows back
from the arrays as it fills them.  :class:`ReferenceCompiledCircuit` runs
that constructor and inherits every query from ``CompiledCircuit``, so the
two can be compared attribute by attribute
(``tests/test_ir_compiled.py::TestReferenceCompile``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ir import kernels
from repro.ir.compiled import Batch, CompiledCircuit
from repro.netlist.circuit import Circuit, Gate

_INVERTING_CODES = kernels.INVERTING_CODES


class ReferenceCompiledCircuit(CompiledCircuit):
    """A :class:`CompiledCircuit` built by the element-by-element compile."""

    def __init__(self, circuit: Circuit) -> None:
        self.version = circuit.version
        order = circuit.topological_order()
        inputs = circuit.inputs

        self.n_inputs = len(inputs)
        self.n_gates = len(order)
        self.n_nets = self.n_inputs + self.n_gates

        #: Net names, indexed by interned ID.
        self.names: Tuple[str, ...] = tuple(inputs) + tuple(g.name for g in order)
        #: Interning map ``name -> ID``.
        self.ids: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        #: Gate objects in topological order; gate ``i`` drives net
        #: ``n_inputs + i``.
        self.order: Tuple[Gate, ...] = tuple(order)

        ids = self.ids
        self.kinds = np.zeros(self.n_nets, dtype=np.int16)
        self.kinds[: self.n_inputs] = kernels.INPUT

        # CSR fanins (per net; PIs contribute empty rows).
        fanin_counts = np.zeros(self.n_nets, dtype=np.int32)
        for gate in order:
            fanin_counts[ids[gate.name]] = len(gate.inputs)
        self.fanin_offsets = np.zeros(self.n_nets + 1, dtype=np.int32)
        np.cumsum(fanin_counts, out=self.fanin_offsets[1:])
        self.fanin_ids = np.zeros(int(self.fanin_offsets[-1]), dtype=np.int32)
        for gate in order:
            out = ids[gate.name]
            self.kinds[out] = kernels.code_of(gate.kind)
            start = self.fanin_offsets[out]
            for slot, net in enumerate(gate.inputs):
                self.fanin_ids[start + slot] = ids[net]

        # CSR fanouts: consumer *gate output* IDs per net, ascending.
        fanout_lists: List[List[int]] = [[] for _ in range(self.n_nets)]
        for gate in order:
            out = ids[gate.name]
            for net in gate.inputs:
                fanout_lists[ids[net]].append(out)
        fanout_counts = np.fromiter(
            (len(lst) for lst in fanout_lists), dtype=np.int32, count=self.n_nets
        )
        self.fanout_offsets = np.zeros(self.n_nets + 1, dtype=np.int32)
        np.cumsum(fanout_counts, out=self.fanout_offsets[1:])
        self.fanout_ids = np.zeros(int(self.fanout_offsets[-1]), dtype=np.int32)
        for net_id, lst in enumerate(fanout_lists):
            lst.sort()
            start = self.fanout_offsets[net_id]
            self.fanout_ids[start : start + len(lst)] = lst

        # Levels (PIs at 0) and level-batched evaluation groups.  Gates
        # group per level by operator *family* (see kernels.FAMILY_OP):
        # XOR-family additionally by arity (padding would flip parity),
        # constants by their fill value.
        self.levels = np.zeros(self.n_nets, dtype=np.int32)
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for gate in order:
            out = ids[gate.name]
            row = self.fanin_row(out)
            level = 1 + int(self.levels[row].max()) if len(row) else 0
            self.levels[out] = level
            code = int(self.kinds[out])
            if code in (kernels.CODE_CONST0, kernels.CODE_CONST1):
                key = (level, 10 + code, 0)
            elif kernels.FAMILY_OP[code] == kernels.OP_XOR:
                key = (level, kernels.OP_XOR, len(row))
            else:
                key = (level, kernels.FAMILY_OP[code], -1)  # arity-merged
            groups.setdefault(key, []).append(out)
        batches: List[Batch] = []
        for (level, group_code, group_arity), outs in sorted(groups.items()):
            out_ids = np.asarray(outs, dtype=np.int32)
            if group_code >= 10:  # constants: invert carries the fill word
                code = group_code - 10
                fill = kernels.ALL_ONES if code == kernels.CODE_CONST1 else np.uint64(0)
                batches.append(
                    Batch(level, None, 0, out_ids,
                          np.zeros((len(outs), 0), dtype=np.int32),
                          np.full(len(outs), fill, dtype=np.uint64),
                          np.zeros(len(outs), dtype=np.int32),
                          np.zeros(0, dtype=np.int32))
                )
                continue
            op = group_code
            # Widest rows first: column i of the evaluation then touches
            # only the prefix of rows with arity > i.
            outs.sort(key=lambda out: (-len(self.fanin_row(out)), out))
            out_ids = np.asarray(outs, dtype=np.int32)
            if group_arity >= 0:
                arity = group_arity
            else:
                arity = len(self.fanin_row(outs[0]))
            fanins = np.zeros((len(outs), arity), dtype=np.int32)
            invert = np.zeros(len(outs), dtype=np.uint64)
            arities = np.zeros(len(outs), dtype=np.int32)
            for row_index, out in enumerate(outs):
                row = self.fanin_row(out)
                arities[row_index] = len(row)
                fanins[row_index, : len(row)] = row
                if len(row) < arity:  # pad: idempotent under & and |
                    fanins[row_index, len(row):] = row[-1]
                if int(self.kinds[out]) in _INVERTING_CODES:
                    invert[row_index] = kernels.ALL_ONES
            col_counts = np.asarray(
                [int(np.count_nonzero(arities > i)) for i in range(arity)],
                dtype=np.int32,
            )
            batches.append(
                Batch(level, op, arity, out_ids, fanins, invert, arities, col_counts)
            )
        #: Evaluation schedule: batches in ascending level order.
        self.batches: Tuple[Batch, ...] = tuple(batches)

        self._output_ids = np.asarray(
            [ids[net] for net in circuit.outputs], dtype=np.int32
        )
        self._cone_cache: Dict[int, np.ndarray] = {}
