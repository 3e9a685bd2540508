"""Parallel multi-copy fingerprint generation and verification.

The paper's deployment model issues one distinct fingerprinted copy per
user, so the practical cost of the scheme is the throughput of the
generate-and-verify loop, not any single embedding.  This module runs that
loop as a batch: N distinct fingerprint values (via the
:class:`~repro.fingerprint.capacity.FingerprintCodec` bijection), each
embedded and verified through the budgeted ladder backed by an
:class:`~repro.sat.incremental.IncrementalCecSession`, optionally across a
:class:`~repro.workers.WorkerPool` (the worker contract every pool shares).

Parallel layout: each worker process builds its own catalog, codec and
incremental session once (in the pool initializer), then values are
dispatched in small chunks so idle workers steal remaining work instead of
being bound to a fixed slice.  Verdicts, budget degradation (UNDECIDED →
random-sim confidence) and overhead accounting are identical to the
single-process path — ``jobs`` only changes wall-clock time.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .. import telemetry
from ..analysis.compare import overhead
from ..analysis.metrics import measure
from ..errors import ReproError, annotate
from ..fingerprint.capacity import FingerprintCodec
from ..fingerprint.embed import embed
from ..fingerprint.locations import FinderOptions, LocationCatalog, find_locations
from ..netlist.circuit import Circuit
from ..store import warm_session
from ..telemetry.metrics import safe_rate
from .ladder import LadderConfig, run_ladder
from .options import FlowOptions

if TYPE_CHECKING:
    from ..workers import Handoff


class BatchError(ReproError, ValueError):
    """Raised for unsatisfiable batch requests (e.g. capacity too small)."""


@dataclass(frozen=True)
class CopyRecord:
    """Verdict and cost accounting for one issued copy."""

    value: int
    n_modifications: int
    equivalent: bool
    proven: bool
    tier: str
    budget_hit: bool
    reason: str
    seconds: float
    area_overhead: Optional[float] = None
    delay_overhead: Optional[float] = None
    power_overhead: Optional[float] = None


@dataclass
class BatchResult:
    """Aggregate outcome of one batch run."""

    design: str
    n_copies: int
    jobs: int
    wall_seconds: float
    records: List[CopyRecord] = field(default_factory=list)
    #: True when the worker pool died mid-run and the remaining copies
    #: were finished in-process (degraded to serial, but nothing lost).
    pool_broken: bool = False

    @property
    def copies_per_sec(self) -> float:
        """End-to-end throughput (embedding + verification included).

        Zero-guarded (:func:`repro.telemetry.safe_rate`): a coarse clock
        timing the whole batch at 0 s reports 0.0 instead of dividing.
        """
        return safe_rate(self.n_copies, self.wall_seconds)

    @property
    def n_equivalent(self) -> int:
        return sum(1 for r in self.records if r.equivalent)

    @property
    def n_mismatch(self) -> int:
        return sum(1 for r in self.records if not r.equivalent)

    @property
    def n_proven(self) -> int:
        return sum(1 for r in self.records if r.proven)

    @property
    def n_degraded(self) -> int:
        """Copies whose SAT budget was spent (verdict fell to random sim)."""
        return sum(1 for r in self.records if r.budget_hit)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view of the whole batch."""
        return {
            "design": self.design,
            "n_copies": self.n_copies,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "copies_per_sec": self.copies_per_sec,
            "n_equivalent": self.n_equivalent,
            "n_mismatch": self.n_mismatch,
            "n_proven": self.n_proven,
            "n_degraded": self.n_degraded,
            "pool_broken": self.pool_broken,
            "records": [asdict(r) for r in self.records],
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"batch {self.design}: {self.n_copies} copies, jobs={self.jobs}, "
            f"{self.wall_seconds:.2f}s ({self.copies_per_sec:.2f} copies/s)",
            f"verdicts: {self.n_equivalent} equivalent "
            f"({self.n_proven} proven), {self.n_mismatch} mismatched, "
            f"{self.n_degraded} budget-degraded",
        ]
        return "\n".join(lines)


def select_values(combinations: int, n_copies: int, seed: int = 0) -> List[int]:
    """``n_copies`` distinct fingerprint values, uniform over the space.

    Deterministic for a given seed; sorted so batch output order is stable
    regardless of worker scheduling.
    """
    if n_copies <= 0:
        raise BatchError("need at least one copy")
    if combinations < n_copies:
        raise BatchError(
            f"design capacity {combinations} cannot supply "
            f"{n_copies} distinct fingerprint values"
        )
    rng = random.Random(seed)
    if combinations <= 1 << 20:
        return sorted(rng.sample(range(combinations), n_copies))
    # Fingerprint spaces are routinely astronomical (hundreds of bits);
    # draw-with-rejection never collides in practice and avoids
    # materializing a range longer than a C ssize_t.
    chosen: set = set()
    while len(chosen) < n_copies:
        chosen.add(rng.randrange(combinations))
    return sorted(chosen)


# Per-process state, built once by the pool initializer so circuits,
# catalogs and the incremental session are not re-pickled per task.
_WORKER: Dict[str, object] = {}


def build_worker_state(
    base: Circuit,
    options: Optional[FinderOptions],
    ladder: Optional[LadderConfig],
    measure_overheads: bool,
    catalog: Optional[LocationCatalog] = None,
) -> Dict[str, object]:
    """Everything one worker needs to embed-and-verify values of ``base``.

    Built once per process (catalog, codec, persistent incremental CEC
    session, optional overhead baseline) and reused for every value.
    Shared with the persistent campaign engine
    (:mod:`repro.campaign.jobs`), which runs the same loop job-by-job
    against a result database, and with the service layer
    (:mod:`repro.service`), whose submissions resolve through the
    artifact store: with a store active, the session/catalog here are
    content-addressed lookups, so a resubmitted netlist skips IR
    compilation, base-CNF encoding, catalog discovery, and session
    warm-up entirely.  The state's ``base`` is the session's own base
    object (the ladder identity-checks ``session.base``), which for a
    cache hit is the previously submitted structurally identical
    circuit.  A caller that already located ``base`` under ``options``
    passes that ``catalog``; it is reused when the session's base is
    ``base`` itself, so a serial batch locates its design once.
    """
    session = warm_session(base)
    if catalog is None or session.base is not base:
        catalog = find_locations(session.base, options)
    base = session.base
    return {
        "base": base,
        "catalog": catalog,
        "codec": FingerprintCodec(catalog),
        "session": session,
        "ladder": ladder,
        "baseline": measure(base) if measure_overheads else None,
    }


def _install_worker_state(
    base: Circuit,
    options: Optional[FinderOptions],
    ladder: Optional[LadderConfig],
    measure_overheads: bool,
) -> None:
    """Pool-worker setup (after :func:`repro.workers.bootstrap`)."""
    _WORKER.clear()
    _WORKER.update(build_worker_state(base, options, ladder, measure_overheads))


def verify_one_value(state: Dict[str, object], value: int) -> CopyRecord:
    """Embed fingerprint ``value`` on the state's base and verify the copy."""
    start = time.perf_counter()
    base: Circuit = state["base"]
    with telemetry.span("batch.copy", value=value) as copy_span:
        assignment = state["codec"].encode(value)
        copy = embed(base, state["catalog"], assignment, name=f"{base.name}_v{value}")
        report = run_ladder(
            base, copy.circuit, config=state["ladder"], session=state["session"]
        )
        area = delay = power = None
        if state["baseline"] is not None:
            over = overhead(state["baseline"], measure(copy.circuit))
            area, delay, power = over.area, over.delay, over.power
        copy_span.set(tier=report.tier.value, equivalent=report.equivalent)
    seconds = time.perf_counter() - start
    telemetry.count("batch.copies_verified")
    telemetry.observe("batch.copy_seconds", seconds)
    return CopyRecord(
        value=value,
        n_modifications=copy.n_active,
        equivalent=report.equivalent,
        proven=report.proven,
        tier=report.tier.value,
        budget_hit=report.budget_hit,
        reason=report.reason,
        seconds=seconds,
        area_overhead=area,
        delay_overhead=delay,
        power_overhead=power,
    )


def _verify_chunk(values: Sequence[int]) -> Handoff:
    """Worker task: one chunk's records, with the telemetry that made them."""
    from .. import workers

    for value in values:
        workers.crash_hook(str(value))
    return workers.hand_off([verify_one_value(_WORKER, value) for value in values])


def _chunked(values: Sequence[int], jobs: int) -> List[List[int]]:
    """Split work into ~4 chunks per worker for coarse work stealing."""
    chunk_size = max(1, len(values) // (jobs * 4))
    return [
        list(values[i : i + chunk_size])
        for i in range(0, len(values), chunk_size)
    ]


def run_batch_flow(
    design: Circuit,
    n_copies: int,
    opts: Optional[FlowOptions] = None,
) -> BatchResult:
    """Generate and verify ``n_copies`` distinct fingerprinted copies.

    This is the engine behind :func:`repro.api.batch`.  Every copy runs
    the full ladder (exhaustive-sim → incremental SAT → random-sim)
    against ``design``; a spent SAT budget degrades that
    copy's verdict exactly as in the single-copy flow, and the
    degradation is visible per record (``budget_hit``/``proven``).

    ``opts.jobs > 1`` verifies across that many worker processes, each
    with its own :class:`~repro.sat.incremental.IncrementalCecSession`;
    results are identical to a serial run (a session's verdict for a
    copy depends only on the base, the copy and the budget), only faster
    on multi-core hosts.  When telemetry is enabled, workers serialize their span
    trees and metric snapshots back with the results, so the parent's
    trace covers the whole pool (one track per worker pid).
    """
    opts = opts if opts is not None else FlowOptions()
    with telemetry.span(
        "batch.run", design=design.name, copies=n_copies, jobs=opts.jobs
    ) as batch_span:
        try:
            design.validate()
            catalog = find_locations(design, opts.resolved_finder())
            codec = FingerprintCodec(catalog)
            values = select_values(codec.combinations, n_copies, seed=opts.seed)
        except ReproError as exc:
            raise annotate(exc, stage="batch", design=design.name)

        start = time.perf_counter()
        pool_broken = False
        if opts.jobs <= 1:
            state = build_worker_state(
                design, opts.resolved_finder(), opts.ladder, opts.measure_overheads,
                catalog,
            )
            records = [verify_one_value(state, value) for value in values]
        else:
            # The pool's modules (multiprocessing, concurrent.futures) load
            # only in a process that starts one.
            from .. import workers

            # A fresh clone drops the (potentially large) per-version
            # caches before pickling the circuit into each worker.
            payload = design.clone(design.name)
            records = []
            try:
                with workers.WorkerPool(
                    opts.jobs,
                    _install_worker_state,
                    (payload, opts.resolved_finder(), opts.ladder,
                     opts.measure_overheads),
                ) as pool:
                    for handoff in pool.map(
                        _verify_chunk, _chunked(values, opts.jobs)
                    ):
                        records.extend(workers.adopt(handoff))
            except workers.BrokenProcessPool:
                # A worker died (OOM-kill, native crash, os._exit).  The
                # chunk results already consumed above are valid verdicts
                # — keep them, and finish the not-yet-reported values
                # in-process instead of throwing the whole batch away.
                pool_broken = True
                done = {record.value for record in records}
                remaining = [value for value in values if value not in done]
                warnings.warn(
                    f"batch worker pool died after {len(done)}/{len(values)} "
                    f"copies; finishing the remaining {len(remaining)} "
                    "in-process (degraded to serial)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                telemetry.count("batch.pool_broken")
                batch_span.set(pool_broken=True)
                state = build_worker_state(
                    design, opts.resolved_finder(), opts.ladder,
                    opts.measure_overheads, catalog,
                )
                records.extend(
                    verify_one_value(state, value) for value in remaining
                )
        wall = time.perf_counter() - start
        records.sort(key=lambda record: record.value)
        result = BatchResult(
            design=design.name,
            n_copies=n_copies,
            jobs=opts.jobs,
            wall_seconds=wall,
            records=records,
            pool_broken=pool_broken,
        )
        batch_span.set(
            wall_seconds=wall,
            n_equivalent=result.n_equivalent,
            n_degraded=result.n_degraded,
        )
        telemetry.count("batch.runs")
        telemetry.count("batch.copies", n_copies)
        telemetry.observe("batch.wall_seconds", wall)
        return result


__all__ = [
    "BatchError",
    "BatchResult",
    "CopyRecord",
    "build_worker_state",
    "run_batch_flow",
    "select_values",
    "verify_one_value",
]
