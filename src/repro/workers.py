"""The one worker-process contract behind every task pool in repro.

The batch flow (:mod:`repro.flows.batch`), the campaign engine
(:mod:`repro.campaign.scheduler`) and the service executor
(:mod:`repro.service.executor`) all run the paper's one verified copy
per buyer loop across a :class:`~concurrent.futures.ProcessPoolExecutor`.
This module decides how such a worker starts and how it reports back;
each caller keeps only its own crash *policy* (batch salvages to serial,
the campaign retries and quarantines, the service requeues once).

* **Bootstrap** (:func:`bootstrap`, the pool initializer).  Under the
  fork start method a worker inherits the parent's live tracer stack,
  metrics registry and active artifact store.  The tracer and registry
  are cleared, or worker spans would nest under an unreachable ghost of
  the parent's open span and never drain; the parent's telemetry flags
  are then switched back on, and a store is activated: a fresh one over
  the shared disk root when the caller names one (the service), else
  whatever :func:`~repro.store.ensure_default_store` yields (batch and
  campaign).  Finally the caller's own setup runs.
* **Hand-off** (:func:`hand_off` in the worker, :func:`adopt` in the
  parent).  A task's value travels back with the span trees and metrics
  snapshot recorded while producing it, tagged with the worker pid; the
  parent grafts the spans under its open span and merges the metrics,
  so one trace covers the whole pool (one track per worker).
* **Crash hook** (:func:`crash_hook`).  Test-only: the
  :data:`CRASH_ENV` variable names task keys whose worker dies with
  ``os._exit(3)``, as a native crash or OOM kill would, so every salvage
  path stays testable.  It fires only inside a pool worker, never in a
  caller's own process.
* **Pool handle** (:class:`WorkerPool`).  A process pool whose workers
  all start through :func:`bootstrap`, with a generation-guarded
  :meth:`~WorkerPool.rebuild` for replacing a pool a crash has broken.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from . import telemetry

#: Test-only fault hook: ``key[:n],...``.  A pool worker about to run a
#: task with a listed key dies, while the task's attempt ordinal is below
#: ``n`` (no ``:n`` means always).  Keys: the fingerprint value (batch),
#: the job id (campaign), the design source (service).
CRASH_ENV = "REPRO_WORKER_CRASH"

#: ``(value, spans, metrics)`` — one task's result with its telemetry.
Handoff = Tuple[Any, List[Dict[str, Any]], Dict[str, Any]]

# Set by bootstrap() in pool workers only; gates the crash hook.
_IN_WORKER = False


def bootstrap(
    telemetry_flags: Tuple[bool, bool],
    store_root: Optional[str],
    memory_entries: int,
    setup: Optional[Callable[..., Any]],
    setup_args: Sequence[Any],
) -> None:
    """Pool initializer: reset fork-inherited state, then run ``setup``."""
    global _IN_WORKER
    _IN_WORKER = True
    trace_on, metrics_on = telemetry_flags
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    telemetry.enable(trace=trace_on, metrics=metrics_on)
    from .store import activate_store, ensure_default_store

    if store_root is not None:
        activate_store(root=store_root, memory_entries=memory_entries)
    else:
        ensure_default_store()
    if setup is not None:
        setup(*setup_args)


def hand_off(value: Any) -> Handoff:
    """Worker side: ``value`` plus the telemetry recorded since the last
    hand-off (both drained), span roots tagged ``worker=<pid>``."""
    spans = telemetry.drain_spans() if telemetry.tracing_enabled() else []
    pid = os.getpid()
    for payload in spans:
        payload.setdefault("attrs", {})["worker"] = pid
    metrics = telemetry.drain_metrics() if telemetry.metrics_enabled() else {}
    return value, spans, metrics


def adopt(handoff: Handoff) -> Any:
    """Parent side: graft and merge a hand-off's telemetry; return its value."""
    value, spans, metrics = handoff
    if spans:
        telemetry.get_tracer().adopt(spans)
    if metrics:
        telemetry.get_registry().merge(metrics)
    return value


def env_hook_matches(env_var: str, key: Optional[str], attempt: int = 0) -> bool:
    """Does the ``key[:n],...`` list in ``env_var`` select this task?"""
    raw = os.environ.get(env_var)
    if not raw:
        return False
    for entry in raw.split(","):
        target, _, bound = entry.strip().partition(":")
        if target and target == key and (not bound or attempt < int(bound)):
            return True
    return False


def crash_hook(key: Optional[str], attempt: int = 0) -> None:
    """Die like a native crash when :data:`CRASH_ENV` selects this task."""
    if _IN_WORKER and env_hook_matches(CRASH_ENV, key, attempt):
        os._exit(3)


class WorkerPool:
    """A process pool whose workers start through :func:`bootstrap`.

    Args:
        workers: Worker process count.
        setup: Module-level callable each worker runs after the
            bootstrap (it must pickle by import path).
        setup_args: Arguments for ``setup``.
        store_root: Shared disk-tier root every worker activates a
            fresh store on; ``None`` keeps :func:`ensure_default_store`.
        memory_entries: Per-worker memory-tier bound (with ``store_root``).

    The parent's telemetry flags are captured whenever a pool is built.
    :meth:`submit` and :meth:`rebuild` are thread-safe.
    """

    def __init__(
        self,
        workers: int,
        setup: Optional[Callable[..., Any]] = None,
        setup_args: Sequence[Any] = (),
        store_root: Optional[str] = None,
        memory_entries: int = 128,
    ) -> None:
        self.workers = workers
        self.generation = 0
        self._bootstrap_args = (
            store_root, memory_entries, setup, tuple(setup_args),
        )
        self._lock = threading.Lock()
        self._closed = False
        self._executor = self._build()

    def _build(self) -> ProcessPoolExecutor:
        flags = (telemetry.tracing_enabled(), telemetry.metrics_enabled())
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=bootstrap,
            initargs=(flags, *self._bootstrap_args),
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> Tuple[int, Future]:
        """Dispatch one task; returns ``(generation, future)``.

        Raises :class:`BrokenProcessPool` when the pool is already dead.
        Pass the generation to :meth:`rebuild` when the future breaks.
        """
        with self._lock:
            return self.generation, self._executor.submit(fn, *args)

    def map(self, fn: Callable[..., Any], items: Iterable[Any]) -> Iterator[Any]:
        """Results of ``fn`` over ``items``, in order (executor ``map``)."""
        return self._executor.map(fn, items)

    def rebuild(self, seen_generation: int) -> bool:
        """Replace a broken pool, at most once per break.

        Every in-flight future of a broken pool raises
        :class:`BrokenProcessPool` at once; each observer reports the
        generation it submitted against, and only the first report for
        a generation swaps the pool.  Returns True when this call did
        the rebuild.
        """
        with self._lock:
            if self._closed or self.generation != seen_generation:
                return False
            self.generation += 1
            broken, self._executor = self._executor, self._build()
        # The broken pool can run nothing again; reap its processes
        # without waiting (they are dead or dying).
        broken.shutdown(wait=False, cancel_futures=True)
        return True

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the workers (``wait`` lets in-flight tasks finish)."""
        with self._lock:
            self._closed = True
            executor = self._executor
        executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


__all__ = [
    "BrokenProcessPool",
    "CRASH_ENV",
    "Handoff",
    "WorkerPool",
    "adopt",
    "bootstrap",
    "crash_hook",
    "env_hook_matches",
    "hand_off",
]
