"""Full-design text reports: structure, timing, power, fingerprintability.

``design_report`` renders the one-page summary an engineer wants before
fingerprinting an IP: size and composition, critical path, power
breakdown, fanout statistics and the fingerprint-location yield.  The CLI
exposes it as ``repro-fp measure --full``.
"""

from __future__ import annotations

from typing import List

from ..netlist.circuit import Circuit
from ..netlist.graph import fanout_histogram
from ..power.estimate import estimate_power
from ..timing.sta import analyze
from .metrics import total_area


def design_report(circuit: Circuit, include_fingerprint: bool = True) -> str:
    """Render a multi-section text report for one circuit.

    Timing is under :data:`~repro.timing.delay_models.DEFAULT_DELAY_MODEL`.
    """
    lines: List[str] = []
    stats = circuit.stats()
    lines.append(f"design {circuit.name}")
    lines.append("=" * (7 + len(circuit.name)))
    lines.append(
        f"ports: {stats['inputs']} inputs, {stats['outputs']} outputs"
    )
    lines.append(f"gates: {stats['gates']}  depth: {stats['depth']}")
    lines.append(f"area:  {total_area(circuit):.0f}")

    lines.append("")
    lines.append("gate mix:")
    histogram = stats["kinds"]
    for kind in sorted(histogram, key=lambda k: -histogram[k]):
        share = histogram[kind] / max(1, stats["gates"])
        lines.append(f"  {kind:<6} {histogram[kind]:>6}  ({share:5.1%})")

    timing = analyze(circuit)
    lines.append("")
    lines.append(f"critical delay: {timing.critical_delay:.3f}")
    path = timing.critical_path
    if path:
        shown = " -> ".join(path[:6]) + (" -> ..." if len(path) > 6 else "")
        lines.append(f"critical path ({len(path)} nets): {shown}")

    power = estimate_power(circuit)
    lines.append("")
    lines.append(
        f"power: {power.total:.1f} total "
        f"({power.dynamic:.1f} dynamic + {power.leakage:.1f} leakage)"
    )

    histogram = fanout_histogram(circuit)
    single = histogram.get(1, 0)
    total_nets = sum(histogram.values())
    max_fanout = max(histogram) if histogram else 0
    lines.append("")
    lines.append(
        f"fanout: {single}/{total_nets} single-fanout nets, "
        f"max fanout {max_fanout}"
    )

    if include_fingerprint:
        from ..fingerprint.capacity import capacity
        from ..fingerprint.locations import find_locations

        catalog = find_locations(circuit)
        report = capacity(catalog)
        lines.append("")
        lines.append(
            f"fingerprintability: {report.n_locations} locations, "
            f"{report.n_slots} slots, {report.bits:.1f} bits"
        )
        if circuit.n_gates:
            lines.append(
                f"  location density: "
                f"{report.n_locations / circuit.n_gates:.1%} of gates"
            )
    return "\n".join(lines)
