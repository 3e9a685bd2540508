"""Experiment harness regenerating the paper's tables and figure.

* :func:`run_table2`  — Table II: per-circuit baseline metrics, fingerprint
  locations, log2 combinations and area/delay/power overheads of the full
  (unconstrained) embedding.
* :func:`run_table3`  — Table III: suite-average fingerprint reduction and
  overheads after the reactive delay heuristic at 10%/5%/1% constraints.
* :func:`run_figure7` — Fig. 7: per-circuit fingerprint sizes (bits)
  before and after each delay constraint.

Every row and cell is one :func:`~repro.flows.pipeline.run_flow` run (the
paper's flow: locate, embed, constrain, verify, measure), and every
fingerprinted copy is checked against its golden design by the
verification ladder (Table II skips it with ``verify=False``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.compare import Overhead
from ..analysis.metrics import Metrics
from ..fingerprint.capacity import CapacityReport, capacity
from ..fingerprint.locations import FinderOptions, find_locations
from ..flows.options import FlowOptions
from ..flows.pipeline import run_flow
from .suite import PAPER_TABLE2, PAPER_TABLE3, SUITE_ORDER, build_benchmark

#: Default constraint levels of Table III / Fig. 7.
CONSTRAINT_LEVELS: Tuple[float, ...] = (0.10, 0.05, 0.01)

#: Suite subsets for different time budgets.
QUICK_SUITE: Tuple[str, ...] = ("C432", "C880", "C499", "vda")
MEDIUM_SUITE: Tuple[str, ...] = QUICK_SUITE + ("C1355", "C1908", "t481", "dalu", "k2")


def suite_for_budget(budget: Optional[str] = None) -> Tuple[str, ...]:
    """Pick the circuit list: 'quick', 'medium' or 'full'.

    Defaults to the ``REPRO_SUITE`` environment variable, then 'quick'.
    """
    budget = budget or os.environ.get("REPRO_SUITE", "quick")
    if budget == "full":
        return SUITE_ORDER
    if budget == "medium":
        return MEDIUM_SUITE
    return QUICK_SUITE


@dataclass
class Table2Row:
    """One Table II row: baseline, capacity and full-embedding overheads."""

    name: str
    baseline: Metrics
    fingerprinted: Metrics
    capacity: CapacityReport
    overhead: Overhead
    equivalent: bool
    paper: Optional[Dict[str, float]] = None


def run_table2(
    names: Optional[Sequence[str]] = None,
    options: Optional[FinderOptions] = None,
    verify: bool = True,
) -> List[Table2Row]:
    """Regenerate Table II for the given circuits.

    ``equivalent`` is the ladder's verdict on the full embedding (left
    ``True`` when ``verify=False``).
    """
    rows: List[Table2Row] = []
    for name in names or suite_for_budget():
        result = run_flow(
            build_benchmark(name), FlowOptions(finder=options, verify=verify)
        )
        rows.append(
            Table2Row(
                name=name,
                baseline=result.baseline_metrics,
                fingerprinted=result.fingerprinted_metrics,
                capacity=result.capacity,
                overhead=result.overhead,
                equivalent=result.verification.equivalent if verify else True,
                paper=PAPER_TABLE2.get(name),
            )
        )
    return rows


@dataclass
class Table3Cell:
    """One circuit at one delay-constraint level."""

    name: str
    constraint: float
    result_overhead: Overhead
    fingerprint_reduction: float
    surviving_bits: float
    met_constraint: bool
    equivalent: bool


@dataclass
class Table3Row:
    """Suite-average row of Table III at one constraint level."""

    constraint: float
    fingerprint_reduction: float
    area_overhead: float
    delay_overhead: float
    power_overhead: float
    cells: List[Table3Cell] = field(default_factory=list)
    paper: Optional[Dict[str, float]] = None

    @staticmethod
    def from_cells(
        constraint: float, cells: List[Table3Cell]
    ) -> "Table3Row":
        n = max(1, len(cells))
        paper_key = f"{int(round(constraint * 100))}%"
        return Table3Row(
            constraint=constraint,
            fingerprint_reduction=sum(c.fingerprint_reduction for c in cells) / n,
            area_overhead=sum(c.result_overhead.area for c in cells) / n,
            delay_overhead=sum(c.result_overhead.delay for c in cells) / n,
            power_overhead=sum(c.result_overhead.power for c in cells) / n,
            cells=cells,
            paper=PAPER_TABLE3.get(paper_key),
        )


def run_table3(
    names: Optional[Sequence[str]] = None,
    constraints: Sequence[float] = CONSTRAINT_LEVELS,
    options: Optional[FinderOptions] = None,
    seed: int = 0,
) -> List[Table3Row]:
    """Regenerate Table III (reactive heuristic at each constraint).

    Each design is built once and flowed at every constraint level, so
    the levels share its compiled IR.  Each cell's ``equivalent`` is the
    ladder's verdict on the pruned copy.
    """
    names = list(names or suite_for_budget())
    cells: List[List[Table3Cell]] = [[] for _ in constraints]
    for name in names:
        base = build_benchmark(name)
        for level, constraint in zip(cells, constraints):
            result = run_flow(
                base,
                FlowOptions(finder=options, delay_constraint=constraint, seed=seed),
            )
            level.append(
                Table3Cell(
                    name=name,
                    constraint=constraint,
                    result_overhead=result.overhead,
                    fingerprint_reduction=result.constrained.fingerprint_reduction,
                    surviving_bits=result.constrained.surviving_bits,
                    met_constraint=result.constrained.met_constraint,
                    equivalent=result.verification.equivalent,
                )
            )
    return [Table3Row.from_cells(c, level) for c, level in zip(constraints, cells)]


@dataclass
class Figure7Series:
    """Fingerprint size (bits) of one circuit across constraint levels."""

    name: str
    unconstrained_bits: float
    constrained_bits: Dict[float, float]


def run_figure7(
    names: Optional[Sequence[str]] = None,
    constraints: Sequence[float] = CONSTRAINT_LEVELS,
    options: Optional[FinderOptions] = None,
    seed: int = 0,
    table3_rows: Optional[Sequence[Table3Row]] = None,
) -> List[Figure7Series]:
    """Regenerate Fig. 7: fingerprint sizes before/after constraints.

    The constrained sizes are the surviving bits of Table III's cells:
    ``table3_rows`` (from :func:`run_table3` over the same names,
    constraints and seed) when given, else a fresh :func:`run_table3`.
    """
    names = list(names or suite_for_budget())
    if table3_rows is None:
        table3_rows = run_table3(names, constraints, options, seed)
    surviving: Dict[str, Dict[float, float]] = {name: {} for name in names}
    for row in table3_rows:
        for cell in row.cells:
            if cell.name in surviving:
                surviving[cell.name][row.constraint] = cell.surviving_bits

    series: List[Figure7Series] = []
    for name in names:
        catalog = find_locations(build_benchmark(name), options)
        series.append(
            Figure7Series(
                name=name,
                unconstrained_bits=capacity(catalog).bits,
                constrained_bits={c: surviving[name][c] for c in constraints},
            )
        )
    return series
