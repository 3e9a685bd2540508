"""Technology mapping: SOP logic networks onto a standard-cell library.

This is the repository's stand-in for Berkeley ABC in the paper's flow
(BLIF → mapped Verilog netlist).  Each SOP node is decomposed into library
gates; multi-input operators are split into trees bounded by the library's
maximum arity.  Two mapping styles produce different circuit textures:

* ``"aoi"`` — AND-of-literals per cube, OR of cubes, plus a final inverter
  for off-set covers.  Yields AND/OR/INV-rich netlists.
* ``"nand"`` — the classic two-level NAND-NAND realization, yielding the
  controlling-value-heavy texture of the ISCAS'85 originals.
* ``"aig"`` — maps through a strashed and-inverter graph and emits an
  AND2/INV netlist (the texture ABC's ``strash; map`` produces before
  cell selection); structural redundancy is removed by the hashing.

Mapping optimality is irrelevant to the fingerprinting study; producing a
*legal* netlist of bounded-arity cells with realistic structure is the job.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import telemetry
from ..cells.library import CellLibrary
from ..netlist.build import CircuitBuilder
from ..netlist.circuit import Circuit
from ..netlist.sop import SopNetwork, SopNode
from ..netlist.transform import cleanup
from ..errors import ReproError


class MappingError(ReproError, ValueError):
    """Raised when a network cannot be mapped onto the library."""



def _free_name(builder: CircuitBuilder, prefer: Optional[str]) -> Optional[str]:
    """Use a preferred node name only while it is still unclaimed.

    Intermediate gates created for earlier cubes may have consumed the
    auto-generated name that matches a BLIF node's own name; primary
    outputs get their names restored by the aliasing pass in ``map``.
    """
    if prefer is not None and builder.circuit.has_net(prefer):
        return None
    return prefer


class TechMapper:
    """Maps :class:`SopNetwork` instances onto one cell library."""

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        style: str = "aoi",
        minimize: bool = False,
    ) -> None:
        if style not in ("aoi", "nand", "aig"):
            raise MappingError(f"unknown mapping style {style!r}")
        self.library = library
        self.style = style
        self.minimize = minimize
        #: What the last :meth:`map` call's clean-up removed, as
        #: :func:`~repro.netlist.transform.cleanup` counts it.
        self.cleanup_totals: Dict[str, int] = {}

    def map(self, network: SopNetwork, name: Optional[str] = None) -> Circuit:
        """Map the whole network; returns a validated, cleaned circuit."""
        network.validate()
        if self.minimize:
            from .sopmin import minimize_network

            network = minimize_network(network)
        if self.style == "aig":
            return self._map_via_aig(network, name)
        builder = CircuitBuilder(name or network.name, self.library)
        builder.circuit.add_inputs(network.inputs)
        signal_of: Dict[str, str] = {n: n for n in network.inputs}
        inverted_of: Dict[str, str] = {}

        def literal(net: str, positive: bool) -> str:
            signal = signal_of[net]
            if positive:
                return signal
            cached = inverted_of.get(net)
            if cached is None:
                cached = builder.inv(signal)
                inverted_of[net] = cached
            return cached

        for node in network.topological_order():
            signal_of[node.name] = self._map_node(builder, node, literal)

        # Primary outputs must carry their declared names: alias with BUFs
        # when the mapped signal landed on an internal name.
        for net in network.outputs:
            signal = signal_of[net]
            if signal != net and not builder.circuit.has_net(net):
                builder.buf(signal, name=net)
                signal_of[net] = net
        builder.circuit.add_outputs(network.outputs)
        circuit = builder.done(validate=True)
        self.cleanup_totals = cleanup(circuit)
        circuit.validate()
        return circuit

    # ------------------------------------------------------------------ #

    def _map_via_aig(self, network: SopNetwork, name: Optional[str]) -> Circuit:
        """SOP network -> strashed AIG -> AND2/INV netlist."""
        from ..aig.graph import Aig, aig_to_circuit, lit_not

        aig = Aig()
        literal_of = {n: aig.add_input(n) for n in network.inputs}
        for node in network.topological_order():
            if node.is_constant:
                literal_of[node.name] = 1 if node.constant_value() else 0
                continue
            terms = []
            for cube in node.cubes:
                cube_literals = []
                for input_net, lit in zip(node.inputs, cube.literals):
                    if lit == "-":
                        continue
                    value = literal_of[input_net]
                    cube_literals.append(value if lit == "1" else lit_not(value))
                terms.append(aig.and_many(cube_literals) if cube_literals else 1)
            value = aig.or_many(terms)
            if node.output_value == "0":
                value = lit_not(value)
            literal_of[node.name] = value
        for output in network.outputs:
            aig.add_output(output, literal_of[output])
        circuit = aig_to_circuit(aig, name or network.name, self.library)
        self.cleanup_totals = cleanup(circuit)
        circuit.validate()
        return circuit

    def _map_node(self, builder: CircuitBuilder, node: SopNode, literal) -> str:
        prefer_name = node.name if not builder.circuit.has_net(node.name) else None
        if node.is_constant:
            kind = "CONST1" if node.constant_value() else "CONST0"
            net = prefer_name or builder.fresh("const")
            builder.circuit.add_gate(net, kind, [])
            return net

        invert_output = node.output_value == "0"
        if not node.cubes:
            # Empty on-set cover => constant 0 (or 1 for off-set covers).
            kind = "CONST1" if invert_output else "CONST0"
            net = prefer_name or builder.fresh("const")
            builder.circuit.add_gate(net, kind, [])
            return net

        if self.style == "nand" and len(node.cubes) > 1:
            return self._map_nand_nand(builder, node, literal, invert_output, prefer_name)
        return self._map_aoi(builder, node, literal, invert_output, prefer_name)

    def _cube_literals(self, node: SopNode, cube, literal) -> List[str]:
        nets = []
        for input_net, lit in zip(node.inputs, cube.literals):
            if lit == "-":
                continue
            nets.append(literal(input_net, lit == "1"))
        return nets

    def _map_aoi(
        self,
        builder: CircuitBuilder,
        node: SopNode,
        literal,
        invert_output: bool,
        prefer_name: Optional[str],
    ) -> str:
        terms: List[str] = []
        for cube in node.cubes:
            nets = self._cube_literals(node, cube, literal)
            if not nets:
                # Universal cube: the function is constant (possibly inverted).
                kind = "CONST0" if invert_output else "CONST1"
                net = _free_name(builder, prefer_name) or builder.fresh("const")
                builder.circuit.add_gate(net, kind, [])
                return net
            terms.append(builder.op("AND", nets) if len(nets) > 1 else nets[0])
        prefer_name = _free_name(builder, prefer_name)
        if len(terms) == 1:
            value = terms[0]
            if invert_output:
                return builder.inv(value, name=prefer_name)
            if prefer_name is not None:
                return builder.buf(value, name=prefer_name)
            return value
        if invert_output:
            return builder.op("NOR", terms, name=prefer_name)
        return builder.op("OR", terms, name=prefer_name)

    def _map_nand_nand(
        self,
        builder: CircuitBuilder,
        node: SopNode,
        literal,
        invert_output: bool,
        prefer_name: Optional[str],
    ) -> str:
        terms: List[str] = []
        for cube in node.cubes:
            nets = self._cube_literals(node, cube, literal)
            if not nets:
                kind = "CONST0" if invert_output else "CONST1"
                net = _free_name(builder, prefer_name) or builder.fresh("const")
                builder.circuit.add_gate(net, kind, [])
                return net
            if len(nets) == 1:
                terms.append(builder.inv(nets[0]))
            else:
                terms.append(builder.op("NAND", nets))
        # OR of cubes == NAND of the per-cube NANDs.
        prefer_name = _free_name(builder, prefer_name)
        if invert_output:
            inner = builder.op("NAND", terms)
            return builder.inv(inner, name=prefer_name)
        return builder.op("NAND", terms, name=prefer_name)


def map_network(
    network: SopNetwork,
    library: Optional[CellLibrary] = None,
    style: str = "aoi",
    name: Optional[str] = None,
    minimize: bool = False,
) -> Circuit:
    """One-shot mapping convenience function."""
    with telemetry.span(
        "techmap.map", design=name or network.name, style=style,
        nodes=len(network.nodes),
    ) as map_span:
        mapper = TechMapper(library, style, minimize=minimize)
        circuit = mapper.map(network, name=name)
        removed = mapper.cleanup_totals
        map_span.set(
            gates=circuit.n_gates,
            **{f"cleanup_{kind}": amount for kind, amount in removed.items()},
        )
        telemetry.count("techmap.networks")
        telemetry.count("techmap.gates", circuit.n_gates)
        for kind, amount in removed.items():
            telemetry.count(f"techmap.cleanup.{kind}", amount)
        return circuit
