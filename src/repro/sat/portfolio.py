"""Portfolio SAT racing: N solver configurations, first verdict wins.

Hard miter obligations occasionally resist one heuristic configuration
while falling quickly to another (restart cadence and branching polarity
interact badly with XOR-heavy cones).  :func:`race` runs the same
obligation under several :class:`~repro.sat.solver.SolverConfig` variants
in parallel OS processes; the first definitive verdict (SAT/UNSAT) stops
the rest through the solver's cooperative ``interrupt`` hook.  Because
every configuration is sound and complete, whichever finishes first
returns *the* verdict — racing can only change latency, never the answer.

Losers' partial work is still accounted: each worker ships its
:class:`~repro.sat.solver.SolverStats` back over the result queue and the
caller receives them merged via :meth:`SolverStats.merge` (raw counters
summed exactly once — derived rates recompute from the merged counters,
so aggregation cannot double-count).

Workers are plain ``multiprocessing`` processes (fork server where
available) fed the exported clause list — learned clauses included, so a
race in the middle of a copy starts from everything that copy's solver
already proved.  A ``portfolio`` of 0 or 1, or an unavailable ``multiprocessing``
start method, degrades to solving inline with the first configuration.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..budget import Budget
from .cnf import Cnf
from .solver import CdclSolver, SatStatus, SolverConfig, SolverStats

#: Default racing lineup, most-general first.  Diversity comes from the
#: restart cadence (short restarts escape bad prefixes, long ones let deep
#: conflict chains finish), branching polarity, and activity half-life.
PORTFOLIO_CONFIGS: Tuple[SolverConfig, ...] = (
    SolverConfig(),
    SolverConfig(restart_base=30, var_decay=0.90),
    SolverConfig(restart_base=400, phase_saving=False),
    SolverConfig(restart_base=100, var_decay=0.99, cla_decay=0.995),
)


@dataclass
class RaceOutcome:
    """Result of one portfolio race.

    ``status``/``model``/``reason`` mirror a ``SatResult``; ``winner`` is
    the :meth:`SolverConfig.key` of the configuration that produced the
    verdict (``None`` when every racer exhausted the budget).  ``stats``
    merges all workers' counters exactly once.
    """

    status: SatStatus
    model: Optional[Dict[int, bool]]
    reason: Optional[str]
    winner: Optional[str]
    stats: SolverStats
    n_workers: int

    @property
    def satisfiable(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def unknown(self) -> bool:
        return self.status is SatStatus.UNKNOWN


def _race_worker(
    index: int,
    n_vars: int,
    clauses: List[List[int]],
    assumptions: Sequence[int],
    config: SolverConfig,
    budget: Optional[Budget],
    stop,  # mp.Event
    results,  # mp.Queue
) -> None:
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(list(clause))
    solver = CdclSolver(cnf, config=config)
    result = solver.solve(
        assumptions, budget=budget, interrupt=stop.is_set
    )
    if result.status is not SatStatus.UNKNOWN:
        stop.set()
    results.put(
        (
            index,
            result.status.value,
            result.model,
            result.reason,
            result.stats.as_dict(),
        )
    )


def _stats_from_dict(payload: Dict[str, float]) -> SolverStats:
    stats = SolverStats()
    for name in SolverStats._SUM_FIELDS:
        setattr(stats, name, payload.get(name, 0))
    stats.max_decision_level = int(payload.get("max_decision_level", 0))
    return stats


def _solve_inline(
    n_vars: int,
    clauses: List[List[int]],
    assumptions: Sequence[int],
    config: SolverConfig,
    budget: Optional[Budget],
) -> RaceOutcome:
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(list(clause))
    result = CdclSolver(cnf, config=config).solve(assumptions, budget=budget)
    winner = config.key() if result.status is not SatStatus.UNKNOWN else None
    return RaceOutcome(
        result.status, result.model, result.reason, winner, result.stats, 1
    )


def race(
    n_vars: int,
    clauses: List[List[int]],
    assumptions: Sequence[int] = (),
    configs: Sequence[SolverConfig] = PORTFOLIO_CONFIGS,
    budget: Optional[Budget] = None,
    join_timeout: float = 10.0,
) -> RaceOutcome:
    """Race ``configs`` on one obligation; first definitive verdict wins.

    ``clauses`` are DIMACS-signed over ``n_vars`` variables (use
    :meth:`CdclSolver.export_clauses` to seed from a live solver);
    ``budget`` bounds each racer independently.  Returns UNKNOWN only
    when *every* racer exhausted its budget.
    """
    configs = list(configs)
    if len(configs) < 2:
        config = configs[0] if configs else SolverConfig()
        return _solve_inline(n_vars, clauses, assumptions, config, budget)
    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = mp.get_context()
    stop = ctx.Event()
    results: "mp.Queue" = ctx.Queue()
    workers = []
    with telemetry.span("sat.portfolio", configs=len(configs), vars=n_vars):
        try:
            for index, config in enumerate(configs):
                worker = ctx.Process(
                    target=_race_worker,
                    args=(
                        index,
                        n_vars,
                        clauses,
                        list(assumptions),
                        config,
                        budget,
                        stop,
                        results,
                    ),
                    daemon=True,
                )
                worker.start()
                workers.append(worker)
        except OSError:  # pragma: no cover - fork failure (rlimits)
            stop.set()
            for worker in workers:
                worker.terminate()
            config = configs[0]
            return _solve_inline(n_vars, clauses, assumptions, config, budget)

        merged = SolverStats()
        reports: List[Tuple[int, str, Optional[Dict[int, bool]], Optional[str]]] = []
        best: Optional[Tuple[int, str, Optional[Dict[int, bool]], Optional[str]]] = None
        pending = len(workers)
        while pending:
            try:
                index, status, model, reason, stats_dict = results.get(
                    timeout=join_timeout if stop.is_set() else 1.0
                )
            except queue_mod.Empty:
                if stop.is_set():
                    break  # a stopped worker died before reporting
                if not any(w.is_alive() for w in workers):
                    break  # every racer exited without a report (crash)
                continue
            pending -= 1
            merged.merge(_stats_from_dict(stats_dict))
            reports.append((index, status, model, reason))
            if status != SatStatus.UNKNOWN.value and best is None:
                best = (index, status, model, reason)
                stop.set()
        stop.set()
        for worker in workers:
            worker.join(timeout=join_timeout)
            if worker.is_alive():  # pragma: no cover - interrupt ignored
                worker.terminate()
                worker.join(timeout=1.0)
        results.close()

        telemetry.count("sat.portfolio.races")
        if best is not None:
            index, status, model, reason = best
            telemetry.count("sat.portfolio.decided")
            return RaceOutcome(
                SatStatus(status),
                model,
                reason,
                configs[index].key(),
                merged,
                len(workers),
            )
        # All racers exhausted their budgets (or died): report the first
        # UNKNOWN reason we saw, if any.
        reason = next((r for _, _, _, r in reports if r), "portfolio exhausted")
        return RaceOutcome(
            SatStatus.UNKNOWN, None, reason, None, merged, len(workers)
        )


def configs_for(n: int) -> List[SolverConfig]:
    """The first ``n`` portfolio configurations (cycled with restart
    jitter past the built-in lineup, so any n is serviceable)."""
    base = list(PORTFOLIO_CONFIGS)
    out: List[SolverConfig] = []
    for i in range(n):
        config = base[i % len(base)]
        if i >= len(base):
            config = replace(
                config, restart_base=config.restart_base + 50 * (i // len(base))
            )
        out.append(config)
    return out
