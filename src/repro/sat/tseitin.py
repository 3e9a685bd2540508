"""Tseitin transformation: gate-level circuits to CNF.

Each net gets a CNF variable; each gate contributes the standard clause set
constraining its output variable to equal its function.  The encoder keeps
the net-to-variable map so the equivalence checker can translate SAT models
back into circuit counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from .cnf import Cnf


@dataclass
class CircuitEncoding:
    """CNF plus the net-to-variable correspondence for one or two circuits."""

    cnf: Cnf = field(default_factory=Cnf)
    var_of: Dict[str, int] = field(default_factory=dict)

    def variable(self, net: str) -> int:
        """Variable for ``net``, allocating it on first use."""
        var = self.var_of.get(net)
        if var is None:
            var = self.cnf.new_var()
            self.var_of[net] = var
        return var


def _encode_and(cnf: Cnf, out: int, ins: Sequence[int], invert: bool) -> None:
    out_lit = -out if invert else out
    for lit in ins:
        cnf.add_clause([-out_lit, lit])
    cnf.add_clause([out_lit] + [-lit for lit in ins])


def _encode_or(cnf: Cnf, out: int, ins: Sequence[int], invert: bool) -> None:
    out_lit = -out if invert else out
    for lit in ins:
        cnf.add_clause([out_lit, -lit])
    cnf.add_clause([-out_lit] + list(ins))


def _encode_xor2(cnf: Cnf, out: int, a: int, b: int) -> None:
    cnf.add_clause([-out, a, b])
    cnf.add_clause([-out, -a, -b])
    cnf.add_clause([out, -a, b])
    cnf.add_clause([out, a, -b])


def _encode_equal(cnf: Cnf, a: int, b: int) -> None:
    cnf.add_clause([-a, b])
    cnf.add_clause([a, -b])


def _encode(cnf: Cnf, kind: str, out: int, ins: List[int]) -> None:
    if kind == "CONST0":
        cnf.add_clause([-out])
    elif kind == "CONST1":
        cnf.add_clause([out])
    elif kind == "BUF":
        _encode_equal(cnf, out, ins[0])
    elif kind == "INV":
        cnf.add_clause([-out, -ins[0]])
        cnf.add_clause([out, ins[0]])
    elif kind in ("AND", "NAND"):
        _encode_and(cnf, out, ins, invert=(kind == "NAND"))
    elif kind in ("OR", "NOR"):
        _encode_or(cnf, out, ins, invert=(kind == "NOR"))
    elif kind in ("XOR", "XNOR"):
        acc = ins[0]
        for lit in ins[1:-1]:
            fresh = cnf.new_var()
            _encode_xor2(cnf, fresh, acc, lit)
            acc = fresh
        if kind == "XOR":
            _encode_xor2(cnf, out, acc, ins[-1])
        else:
            fresh = cnf.new_var()
            _encode_xor2(cnf, fresh, acc, ins[-1])
            cnf.add_clause([-out, -fresh])
            cnf.add_clause([out, fresh])
    else:
        raise ValueError(f"cannot encode gate kind {kind!r}")


def encode_circuit(
    circuit: Circuit,
    encoding: Optional[CircuitEncoding] = None,
    prefix: str = "",
    shared_nets: Sequence[str] = (),
) -> CircuitEncoding:
    """Encode a whole circuit into CNF.

    ``shared_nets`` (typically primary inputs) are looked up without the
    prefix, so two circuits encoded into the same :class:`CircuitEncoding`
    with different prefixes share those variables — the construction behind
    the equivalence-checking miter.

    Variable numbering is *stable*: every net is pre-interned in the
    compiled IR's ID order (primary inputs first, then gate outputs
    topologically), so the same circuit always yields the same
    net-to-variable map regardless of gate-encoding order, and two
    encodings of structurally identical circuits are variable-for-variable
    comparable.

    The *bare* form (no caller-supplied encoding, prefix, or shared
    nets) is content-addressed when an artifact store is active: a
    structurally identical resubmission returns the cached
    :class:`CircuitEncoding`.  Bare-form results are shared read-only by
    convention — every existing consumer copies ``var_of`` and feeds
    ``cnf`` to a solver that copies the clauses; callers that want to
    extend an encoding in place must pass their own ``encoding``.
    """
    if encoding is None and not prefix and not shared_nets:
        from ..store.core import active_store

        store = active_store()
        if store is not None:
            from ..hashing import circuit_digest

            return store.get_or_compute(
                "cnf",
                circuit_digest(circuit),
                lambda: _encode_whole(circuit, CircuitEncoding(), "", set()),
            )
    if encoding is None:
        encoding = CircuitEncoding()
    return _encode_whole(circuit, encoding, prefix, set(shared_nets))


def _encode_whole(
    circuit: Circuit,
    encoding: CircuitEncoding,
    prefix: str,
    shared: set,
) -> CircuitEncoding:
    compiled = compile_circuit(circuit)

    def net_var(net: str) -> int:
        return encoding.variable(net if net in shared else prefix + net)

    for net in compiled.names:
        net_var(net)
    for gate in compiled.gates_in_order():
        out = net_var(gate.name)
        ins = [net_var(n) for n in gate.inputs]
        _encode(encoding.cnf, gate.kind, out, ins)
    return encoding
