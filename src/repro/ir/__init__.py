"""Compiled-circuit IR: interned, array-based analysis substrate.

``compile_circuit(circuit)`` lowers a netlist to flat numpy arrays
(interned net IDs, CSR adjacency, levels, per-level kind batches) cached
on ``Circuit.version``; simulation, observability, power, SCOAP and
CNF encoding all run on it instead of re-deriving topology themselves.
See ``docs/ARCHITECTURE.md``.
"""

from .compiled import Batch, CompiledCircuit, compile_circuit
from .kernels import (
    INPUT,
    KIND_CODE,
    KIND_NAME,
    code_of,
    eval_batch,
    eval_gate,
    popcount,
)

__all__ = [
    "Batch",
    "CompiledCircuit",
    "compile_circuit",
    "INPUT",
    "KIND_CODE",
    "KIND_NAME",
    "code_of",
    "eval_batch",
    "eval_gate",
    "popcount",
]
