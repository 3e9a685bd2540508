"""Nested-span tracing with near-zero disabled overhead.

The tracer is process-local and off by default.  When tracing is
disabled, :func:`span` returns one shared no-op object — no ``Span`` is
allocated, no clock is read — so instrumentation can sit on hot paths
(the bit-parallel simulator, the SAT solver) without taxing them.  When
enabled, spans record wall-clock start/duration plus free-form
attributes and nest into trees; completed root spans accumulate on the
:class:`Tracer` until drained by an exporter.

Spans serialize to plain dicts (:meth:`Span.as_dict` /
:func:`span_from_dict`), which is how pool workers ship span trees
back to the parent process (:mod:`repro.workers`, :meth:`Tracer.adopt`).  Start times are expressed on the wall clock
(``time.time`` epoch), so spans gathered from different processes land
on one consistent timeline in a Chrome trace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

#: Offset converting ``time.perf_counter()`` readings to wall-clock
#: seconds.  Captured once at import, so all spans of one process share
#: a monotonic base while staying comparable across processes.
_EPOCH_OFFSET = time.time() - time.perf_counter()

_TRACING = False
_METRICS = False


def tracing_enabled() -> bool:
    """True when spans are being recorded."""
    return _TRACING


def metrics_enabled() -> bool:
    """True when metric updates are being recorded."""
    return _METRICS


def enable(trace: bool = True, metrics: bool = True) -> None:
    """Turn telemetry on.  Flags are sticky until :func:`disable`.

    ``enable(trace=False, metrics=True)`` turns a single subsystem on
    without touching the other's current state — a ``False`` argument
    means "leave as is", not "force off"; use :func:`disable` to clear.
    """
    global _TRACING, _METRICS
    if trace:
        _TRACING = True
    if metrics:
        _METRICS = True


def disable() -> None:
    """Turn all telemetry off (recorded spans/metrics stay drainable)."""
    global _TRACING, _METRICS
    _TRACING = False
    _METRICS = False


@contextmanager
def enabled(trace: bool = True, metrics: bool = True):
    """Enable telemetry for a ``with`` block, restoring prior flags after.

    Yields the process tracer.  Spans recorded inside the block stay on
    the tracer for the caller to export or drain.
    """
    global _TRACING, _METRICS
    before = (_TRACING, _METRICS)
    if trace:
        _TRACING = True
    if metrics:
        _METRICS = True
    try:
        yield get_tracer()
    finally:
        _TRACING, _METRICS = before


class Span:
    """One timed, attributed, nestable region of work.

    Use via ``with telemetry.span("sat.solve", vars=n) as sp:``; call
    :meth:`set` to attach attributes discovered mid-flight (verdicts,
    counts).  Durations are wall-clock seconds.
    """

    __slots__ = ("name", "start", "duration", "attrs", "children")

    #: Spans constructed process-wide — the no-op overhead test asserts
    #: this does not move while telemetry is disabled.
    created = 0

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        Span.created += 1
        self.name = name
        self.start = time.perf_counter() + _EPOCH_OFFSET
        self.duration = 0.0
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List[Span] = []

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        get_tracer().finish(self)
        return False

    def walk(self) -> Iterable["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (recursive)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


def span_from_dict(payload: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.as_dict` output."""
    rebuilt = Span(payload["name"], payload.get("attrs"))
    rebuilt.start = float(payload.get("start", 0.0))
    rebuilt.duration = float(payload.get("duration", 0.0))
    rebuilt.children = [span_from_dict(c) for c in payload.get("children", ())]
    return rebuilt


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-local span collector.

    Keeps the stack of currently-open spans and the list of finished
    root spans.  Not thread-safe by design: the pipeline is process
    parallel, and each worker process owns its own tracer whose spans
    are shipped back as dicts (:meth:`adopt`).
    """

    def __init__(self) -> None:
        self._stack: List[Span] = []
        self.finished: List[Span] = []

    def start(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        opened = Span(name, attrs)
        self._stack.append(opened)
        return opened

    def finish(self, closing: Span) -> None:
        closing.duration = time.perf_counter() + _EPOCH_OFFSET - closing.start
        # Pop down to the closing span so a leaked child (an exception
        # that skipped an __exit__) cannot corrupt later nesting.
        while self._stack:
            if self._stack.pop() is closing:
                break
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(closing)
        else:
            self.finished.append(closing)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def adopt(self, payloads: Iterable[Dict[str, Any]], **attrs: Any) -> List[Span]:
        """Graft serialized span trees (e.g. from a pool worker) in.

        Extra ``attrs`` are stamped onto each adopted root (typically
        ``worker=<pid>``).  Roots attach under the currently open span
        when one exists, else to the finished list.
        """
        adopted = []
        for payload in payloads:
            rebuilt = span_from_dict(payload)
            rebuilt.attrs.update(attrs)
            adopted.append(rebuilt)
        parent = self.current()
        if parent is not None:
            parent.children.extend(adopted)
        else:
            self.finished.extend(adopted)
        return adopted

    def drain(self) -> List[Span]:
        """Take (and clear) the finished root spans."""
        taken, self.finished = self.finished, []
        return taken

    def reset(self) -> None:
        """Drop all recorded and open spans."""
        self._stack.clear()
        self.finished.clear()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, **attrs: Any):
    """Open a span (context manager) — or the no-op when tracing is off."""
    if not _TRACING:
        return NOOP_SPAN
    return _TRACER.start(name, attrs)


def drain_spans() -> List[Dict[str, Any]]:
    """Finished root spans as serializable dicts (clears the tracer)."""
    return [finished.as_dict() for finished in _TRACER.drain()]


__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "disable",
    "drain_spans",
    "enable",
    "enabled",
    "get_tracer",
    "metrics_enabled",
    "span",
    "span_from_dict",
    "tracing_enabled",
]
