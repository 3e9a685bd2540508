"""Multi-process execution backend for the fingerprinting service.

:class:`JobExecutor` runs service jobs on a
:class:`~repro.workers.WorkerPool` of N worker processes, so concurrent
submissions from different tenants overlap on multi-core hosts.  The
workers start through the shared contract of :mod:`repro.workers`, with
one service-specific choice: each activates its **own**
:class:`~repro.store.ArtifactStore` over the *shared disk-tier root* —
the disk tier supports concurrent processes (atomic publish,
corrupt-reads-as-misses), so a netlist made warm by one worker is warm
for every worker, while live memory-only artifacts (warm CEC sessions)
stay per-process.  A finished job ships its complete result envelope —
span tree, metric snapshot, and per-job store *delta* included — back
to the parent, which is what SSE streaming, ``/v1/stats`` and the
envelope ``cache`` section read.

The service's crash policy lives here and in the server:

* **Broken-pool salvage** — a worker crash (OOM-kill, native crash)
  breaks the whole pool; :meth:`JobExecutor.rebuild` swaps in a fresh
  pool exactly once per break (concurrent observers of the same
  generation rebuild only once), and the server requeues each in-flight
  job once before failing it with a structured ``worker_crashed`` error.
* **Graceful drain** — :meth:`JobExecutor.shutdown` finishes in-flight
  work before the processes exit.
* **Per-worker liveness** — every result carries its worker's pid; the
  executor keeps per-pid job counts and last-seen timestamps, tagged
  with the pool generation, for the ``/v1/stats`` ``executor`` section.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..budget import Budget
from ..workers import BrokenProcessPool, WorkerPool, crash_hook

__all__ = ["BrokenProcessPool", "JobExecutor", "WorkerInfo"]


@dataclass
class WorkerInfo:
    """Liveness record for one observed worker process."""

    pid: int
    jobs: int = 0
    last_seen: Optional[float] = None
    generation: int = 0

    def as_dict(self, current_generation: int) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "jobs": self.jobs,
            "last_seen": self.last_seen,
            # A worker from a previous pool generation is gone by
            # construction — its pool was shut down when it broke.
            "alive": self.generation == current_generation,
        }


def _execute_service_job(
    command: str,
    payload: Dict[str, Any],
    budget: Optional[Budget],
    include_spans: bool,
    attempt: int,
) -> Tuple[int, Dict[str, Any]]:
    """Worker task: run one job, return ``(worker_pid, envelope)``.

    Job-level failures are *returned* (``envelope["ok"] is False``), not
    raised — exceptions crossing the process boundary lose their
    structured payloads in pickling, and a raising task is
    indistinguishable from a crashing one to the salvage logic.
    """
    crash_hook(payload.get("design"), attempt)
    from .jobs import ServiceJobFailed, run_service_job

    try:
        envelope = run_service_job(command, payload, budget, include_spans)
    except ServiceJobFailed as exc:
        return os.getpid(), exc.envelope
    return os.getpid(), envelope


class JobExecutor:
    """N-process job execution backend (see module docstring).

    Args:
        workers: Worker process count (≥ 1).
        store_root: Shared disk-tier directory every worker activates
            its artifact store on (the server always provides one).
            ``None`` falls back to
            :func:`~repro.store.ensure_default_store`, as batch and
            campaign workers do.
        memory_entries: Per-worker memory-tier LRU bound.
        include_spans: Ship span trees back in job envelopes (the
            server sets this when it is writing a whole-lifetime trace).

    Thread-safety: :meth:`submit`, :meth:`rebuild` and :meth:`stats`
    may be called from the event loop while futures resolve on pool
    threads; one lock guards the pool handle and the liveness table.
    """

    def __init__(
        self,
        workers: int,
        store_root: Optional[str] = None,
        memory_entries: int = 128,
        include_spans: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.store_root = store_root
        self.memory_entries = memory_entries
        self.include_spans = include_spans
        self.crashes = 0
        self._lock = threading.Lock()
        self._pool: Optional[WorkerPool] = None
        self._workers: Dict[int, WorkerInfo] = {}
        self._jobs_done = 0

    @property
    def generation(self) -> int:
        """How many times the pool has been rebuilt after a crash."""
        return 0 if self._pool is None else self._pool.generation

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "JobExecutor":
        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.workers,
                    store_root=self.store_root,
                    memory_entries=self.memory_entries,
                )
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Graceful drain: finish in-flight jobs, then stop the workers."""
        with self._lock:
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=wait)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def submit(
        self,
        command: str,
        payload: Dict[str, Any],
        budget: Optional[Budget] = None,
        attempt: int = 0,
    ) -> Tuple[int, "Future[Tuple[int, Dict[str, Any]]]"]:
        """Dispatch one job; returns ``(generation, future)``.

        The generation is the pool identity at submit time — pass it to
        :meth:`rebuild` when the future raises
        :class:`BrokenProcessPool`, so concurrent casualties of one
        crash trigger exactly one rebuild.  ``attempt`` is the job's
        requeue count (read by the test-only crash hook).
        """
        with self._lock:
            if self._pool is None:
                raise RuntimeError("executor is not started")
            return self._pool.submit(
                _execute_service_job, command, payload, budget,
                self.include_spans, attempt,
            )

    def note_result(self, pid: int) -> None:
        """Record a completed job against its worker's liveness row."""
        with self._lock:
            info = self._workers.get(pid)
            if info is None:
                info = self._workers[pid] = WorkerInfo(pid=pid)
            info.jobs += 1
            info.last_seen = time.time()
            info.generation = self.generation
            self._jobs_done += 1

    def rebuild(self, seen_generation: int) -> bool:
        """Replace a broken pool (at most once per break).

        Returns True when this call did the rebuild (see
        :meth:`repro.workers.WorkerPool.rebuild`).
        """
        with self._lock:
            if self._pool is None or not self._pool.rebuild(seen_generation):
                return False
            self.crashes += 1
        telemetry.count("service.pool_rebuilt")
        return True

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The ``executor`` section of ``/v1/stats``."""
        with self._lock:
            generation = self.generation
            workers = [
                info.as_dict(generation)
                for info in sorted(self._workers.values(), key=lambda w: w.pid)
            ]
            return {
                "backend": "process",
                "workers": self.workers,
                "generation": generation,
                "crashes": self.crashes,
                "jobs_done": self._jobs_done,
                "store_root": self.store_root,
                "worker_processes": workers,
            }
