"""End-to-end fingerprinting flow (the paper's Fig. 6 pipeline).

One call takes a design — a gate-level circuit, BLIF text, or an SOP
network — and runs: technology mapping (if needed) → location finding →
capacity analysis → embedding → functional verification → measurement,
optionally followed by a delay-constrained pruning pass.  This is the
programmatic equivalent of the paper's "circuit modifier" tool, and the
object the examples and harness build on.

Robustness contract: every intentional failure leaves the flow as a typed
:class:`repro.errors.ReproError` annotated with the failing stage and
design name, and functional verification runs through the budgeted
:mod:`ladder <repro.flows.ladder>` — a verification timeout degrades the
verdict (recorded in :attr:`FlowResult.verification`), it never raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .. import telemetry
from ..analysis.compare import Overhead, overhead
from ..analysis.metrics import Metrics, measure
from ..errors import ReproError, annotate
from ..fingerprint.capacity import CapacityReport, FingerprintCodec, capacity
from ..fingerprint.constraints import ConstraintResult, reactive_delay_constrain
from ..fingerprint.embed import FingerprintedCircuit, embed, full_assignment
from ..fingerprint.locations import LocationCatalog, find_locations
from ..netlist.blif import parse_blif
from ..netlist.circuit import Circuit
from ..netlist.sop import SopNetwork
from ..techmap.mapper import map_network
from .ladder import VerificationReport, run_ladder
from .options import FlowOptions


@dataclass
class FlowResult:
    """Everything produced by one fingerprinting run."""

    base: Circuit
    catalog: LocationCatalog
    capacity: CapacityReport
    codec: FingerprintCodec
    copy: FingerprintedCircuit
    baseline_metrics: Metrics
    fingerprinted_metrics: Metrics
    overhead: Overhead
    constrained: Optional[ConstraintResult] = None
    verification: Optional[VerificationReport] = None

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"design {self.base.name}: {self.baseline_metrics.gates} gates, "
            f"area {self.baseline_metrics.area:.0f}, "
            f"delay {self.baseline_metrics.delay:.2f}, "
            f"power {self.baseline_metrics.power:.1f}",
            f"fingerprint locations: {self.capacity.n_locations} "
            f"(slots {self.capacity.n_slots}, "
            f"capacity {self.capacity.bits:.2f} bits)",
            f"full embedding overhead: "
            f"area {self.overhead.area:+.1%}, delay {self.overhead.delay:+.1%}, "
            f"power {self.overhead.power:+.1%}",
        ]
        if self.verification is not None:
            lines.append(f"verification: {self.verification.summary()}")
        if self.constrained is not None:
            c = self.constrained
            lines.append(
                f"delay constraint {c.constraint:.0%}: kept {c.kept}/"
                f"{c.initial_active} modifications "
                f"({c.fingerprint_reduction:.1%} reduction), "
                f"{c.surviving_bits:.1f} bits survive"
            )
        return "\n".join(lines)


def _to_circuit(design: Union[Circuit, SopNetwork, str], map_style: str) -> Circuit:
    try:
        if isinstance(design, Circuit):
            return design
        if isinstance(design, SopNetwork):
            return map_network(design, style=map_style)
        if isinstance(design, str):
            return map_network(parse_blif(design), style=map_style)
    except ReproError as exc:
        raise annotate(exc, stage="load")
    raise TypeError(f"cannot fingerprint object of type {type(design)!r}")


def _staged(stage: str, design_name: str, fn, *args, **kwargs):
    """Run one pipeline stage in a span, annotating typed errors."""
    with telemetry.span(f"fingerprint.{stage}", design=design_name):
        try:
            return fn(*args, **kwargs)
        except ReproError as exc:
            raise annotate(exc, stage=stage, design=design_name)


def run_flow(
    design: Union[Circuit, SopNetwork, str],
    opts: Optional[FlowOptions] = None,
) -> FlowResult:
    """Run the full fingerprinting pipeline on ``design``.

    This is the engine behind :func:`repro.api.fingerprint` — all knobs
    arrive through one keyword-only :class:`FlowOptions`.
    ``opts.assignment`` defaults to the paper's maximal embedding (one
    modification per location).  When ``opts.delay_constraint`` is given,
    the reactive heuristic prunes the embedded copy to fit
    ``(1 + delay_constraint) * baseline_delay``.  ``opts.ladder`` tunes
    the budgeted verification ladder (exhaustive sim → budgeted SAT CEC →
    random-sim fallback); verification budget exhaustion degrades the
    verdict instead of raising.
    """
    opts = opts if opts is not None else FlowOptions()
    with telemetry.span("fingerprint.flow", style=opts.map_style) as flow_span:
        base = _to_circuit(design, opts.map_style)
        flow_span.set(design=base.name, gates=base.n_gates)
        _staged("validate", base.name, base.validate)
        catalog = _staged(
            "locate", base.name, find_locations, base, opts.resolved_finder()
        )
        report = _staged("capacity", base.name, capacity, catalog)
        codec = FingerprintCodec(catalog)
        chosen = (
            opts.assignment
            if opts.assignment is not None
            else full_assignment(base, catalog)
        )
        copy = _staged("embed", base.name, embed, base, catalog, chosen)

        constrained: Optional[ConstraintResult] = None
        if opts.delay_constraint is not None:
            constrained = _staged(
                "constrain",
                base.name,
                reactive_delay_constrain,
                copy,
                opts.delay_constraint,
                seed=opts.seed,
            )

        verification: Optional[VerificationReport] = None
        if opts.verify:
            verification = run_ladder(base, copy.circuit, config=opts.ladder)

        baseline_metrics = _staged("measure", base.name, measure, base)
        fingerprinted_metrics = _staged("measure", base.name, measure, copy.circuit)
        telemetry.count("fingerprint.flows")
        telemetry.count("fingerprint.locations", report.n_locations)
        return FlowResult(
            base=base,
            catalog=catalog,
            capacity=report,
            codec=codec,
            copy=copy,
            baseline_metrics=baseline_metrics,
            fingerprinted_metrics=fingerprinted_metrics,
            overhead=overhead(baseline_metrics, fingerprinted_metrics),
            constrained=constrained,
            verification=verification,
        )
