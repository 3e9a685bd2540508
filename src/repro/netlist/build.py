"""Fluent helper for constructing netlists programmatically.

Benchmark generators and tests build circuits gate by gate; the builder
handles fresh-name generation, arity splitting (an 8-input AND becomes a
tree of library-arity ANDs) and common macro blocks (XOR trees, adders,
multiplexers) so generators read like datapath descriptions.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, Sequence

from ..cells.library import CellLibrary
from .circuit import Circuit


class CircuitBuilder:
    """Incrementally build a :class:`Circuit` with automatic naming.

    ``split_arity`` caps the fan-in used when :meth:`op` builds gate trees.
    It defaults below the library maximum so mapped gates keep widening
    headroom — the ODC fingerprinting engine can only use a gate as a
    modification target if a same-kind cell with one more input exists.
    """

    def __init__(
        self,
        name: str,
        library: Optional[CellLibrary] = None,
        split_arity: int = 4,
    ) -> None:
        self.circuit = Circuit(name, library)
        self._counter = 0
        if split_arity < 2:
            raise ValueError("split_arity must be >= 2")
        self.split_arity = split_arity

    # ------------------------------------------------------------------ #
    # naming / ports
    # ------------------------------------------------------------------ #

    def fresh(self, prefix: str = "n") -> str:
        """Return a net name that is not yet used in the circuit.

        Names are interned, so every circuit built with the same prefixes
        (each techmap run of one design, say) shares one string per name.
        Names parsed from user netlists are deliberately not interned: on
        Python 3.12 interned strings are immortal, and generated names are
        bounded by the largest circuit built, while user names are not.
        """
        while True:
            self._counter += 1
            name = sys.intern(f"{prefix}{self._counter}")
            if not self.circuit.has_net(name):
                return name

    def inputs(self, prefix: str, count: int) -> List[str]:
        """Declare ``count`` primary inputs named ``prefix0..``."""
        return self.circuit.add_inputs(f"{prefix}{i}" for i in range(count))

    def input(self, name: str) -> str:
        """Declare a single named primary input."""
        return self.circuit.add_input(name)

    def outputs(self, nets: Iterable[str]) -> List[str]:
        """Declare the given nets as primary outputs."""
        return self.circuit.add_outputs(nets)

    def output(self, net: str) -> str:
        """Declare one net as a primary output."""
        return self.circuit.add_output(net)

    # ------------------------------------------------------------------ #
    # gates
    # ------------------------------------------------------------------ #

    def gate(self, kind: str, inputs: Sequence[str], name: Optional[str] = None) -> str:
        """Add one gate of exactly ``len(inputs)`` arity; returns its net."""
        net = name or self.fresh(kind.lower())
        self.circuit.add_gate(net, kind, inputs)
        return net

    def op(self, kind: str, inputs: Sequence[str], name: Optional[str] = None) -> str:
        """Add ``kind`` over any number of inputs, splitting into a tree.

        Splitting respects the library's maximum arity for the kind.  For
        inverting kinds (NAND/NOR/XNOR) the tree is built from the base
        operator with a single final inverting stage, preserving function.
        """
        inputs = list(inputs)
        if not inputs:
            raise ValueError("op() needs at least one input")
        if len(inputs) == 1:
            if kind in ("AND", "OR", "XOR", "BUF"):
                return self.gate("BUF", inputs, name) if name else inputs[0]
            if kind in ("NAND", "NOR", "XNOR", "INV"):
                return self.gate("INV", inputs, name)
            raise ValueError(f"cannot apply {kind} to one input")
        base = {"NAND": "AND", "NOR": "OR", "XNOR": "XOR"}.get(kind, kind)
        max_arity = min(self.circuit.library.max_arity(base), self.split_arity)
        if max_arity < 2:
            raise ValueError(f"library has no multi-input {base} cells")
        nets = inputs
        while len(nets) > max_arity:
            grouped: List[str] = []
            for start in range(0, len(nets), max_arity):
                chunk = nets[start : start + max_arity]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self.gate(base, chunk))
            nets = grouped
        if kind == base:
            return self.gate(base, nets, name)
        # One inverting final stage: prefer the native inverting cell.
        if self.circuit.library.try_find(kind, len(nets)) is not None:
            return self.gate(kind, nets, name)
        positive = self.gate(base, nets)
        return self.gate("INV", [positive], name)

    # Convenience wrappers ------------------------------------------------

    def and_(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("AND", list(inputs), name)

    def or_(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("OR", list(inputs), name)

    def nand(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("NAND", list(inputs), name)

    def nor(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("NOR", list(inputs), name)

    def xor(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("XOR", list(inputs), name)

    def xnor(self, *inputs: str, name: Optional[str] = None) -> str:
        return self.op("XNOR", list(inputs), name)

    def inv(self, net: str, name: Optional[str] = None) -> str:
        return self.gate("INV", [net], name)

    def buf(self, net: str, name: Optional[str] = None) -> str:
        return self.gate("BUF", [net], name)

    # ------------------------------------------------------------------ #
    # macro blocks
    # ------------------------------------------------------------------ #

    def mux2(self, sel: str, a: str, b: str, name: Optional[str] = None) -> str:
        """2:1 multiplexer: ``sel ? b : a`` built from AND/OR/INV."""
        sel_n = self.inv(sel)
        take_a = self.gate("AND", [a, sel_n])
        take_b = self.gate("AND", [b, sel])
        return self.gate("OR", [take_a, take_b], name)

    def half_adder(self, a: str, b: str) -> tuple:
        """Half adder; returns ``(sum, carry)``."""
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a: str, b: str, cin: str) -> tuple:
        """Full adder from two half adders; returns ``(sum, carry)``."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.or_(c1, c2)

    def full_adder_nand(self, a: str, b: str, cin: str) -> tuple:
        """Full adder built purely from 2-input NAND gates (9 gates).

        Used by the C6288 stand-in: the real ISCAS circuit is an array
        multiplier over NOR/INV cells; a NAND-only adder array reproduces
        the same all-controlling-gate texture that gives the multiplier its
        ODC-rich structure.
        """
        n1 = self.gate("NAND", [a, b])
        n2 = self.gate("NAND", [a, n1])
        n3 = self.gate("NAND", [b, n1])
        p = self.gate("NAND", [n2, n3])  # a XOR b
        n4 = self.gate("NAND", [p, cin])
        n5 = self.gate("NAND", [p, n4])
        n6 = self.gate("NAND", [cin, n4])
        total = self.gate("NAND", [n5, n6])  # (a XOR b) XOR cin
        carry = self.gate("NAND", [n1, n4])
        return total, carry

    def ripple_adder(self, a: Sequence[str], b: Sequence[str], cin: Optional[str] = None) -> tuple:
        """Ripple-carry adder; returns ``(sum_bits, carry_out)``."""
        if len(a) != len(b):
            raise ValueError("adder operands must have equal width")
        sums: List[str] = []
        carry = cin
        for bit_a, bit_b in zip(a, b):
            if carry is None:
                s, carry = self.half_adder(bit_a, bit_b)
            else:
                s, carry = self.full_adder(bit_a, bit_b, carry)
            sums.append(s)
        return sums, carry

    def xor_tree(self, nets: Sequence[str], name: Optional[str] = None) -> str:
        """Balanced XOR reduction tree over ``nets``."""
        nets = list(nets)
        if not nets:
            raise ValueError("xor_tree needs at least one net")
        while len(nets) > 1:
            nxt: List[str] = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.xor(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        if name is not None:
            return self.buf(nets[0], name)
        return nets[0]

    def done(self, validate: bool = True) -> Circuit:
        """Finish building; validates by default and returns the circuit."""
        if validate:
            self.circuit.validate()
        return self.circuit
