"""Spans recorded by the benchmark itself, folded into per-layer self time.

The traced pass wraps each call into the program in ``Recorder.span``.
A span remembers its start, its duration, how much of that duration its
child spans cover, and how much each program counter moved while it was
open.  Layer spans (``netlist.parse``, ``flows.ladder`` ...) never nest
inside each other; they sit under a ``row.<design>`` span inside one
``pass`` span, and whatever time those two kinds of glue spans keep for
themselves is the unattributed remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass
class SpanRecord:
    name: str
    start: float
    duration: float
    self_time: float
    depth: int
    counters: Dict[str, float]


def is_layer(name: str) -> bool:
    return name != "pass" and not name.startswith("row.")


class Recorder:
    """Collects finished spans of the traced passes in memory.

    ``counters`` returns the program's live counter dict; a span stores
    the counters that moved between its opening and its closing.
    """

    def __init__(self, counters: Callable[[], Dict[str, float]]) -> None:
        self._counters = counters
        self._stack: List[_Span] = []
        self.spans: List[SpanRecord] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def take(self) -> List[SpanRecord]:
        """The spans finished since the last call (clears them)."""
        taken, self.spans = self.spans, []
        return taken


class _Span:
    """One open span.  The counter snapshots fall inside it, so their cost
    is this span's self time rather than unattributed time of its parent."""

    __slots__ = ("recorder", "name", "start", "children", "before")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()
        self.children = 0.0
        self.before = dict(self.recorder._counters())
        self.recorder._stack.append(self)

    def __exit__(self, *exc) -> bool:
        recorder = self.recorder
        before = self.before
        moved = {
            key: value - before.get(key, 0.0)
            for key, value in recorder._counters().items()
            if value != before.get(key, 0.0)
        }
        recorder._stack.pop()
        duration = time.perf_counter() - self.start
        if recorder._stack:
            recorder._stack[-1].children += duration
        recorder.spans.append(SpanRecord(
            self.name, self.start, duration, duration - self.children,
            len(recorder._stack), moved,
        ))
        return False


def layer_table(spans: List[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Per-layer calls, self time and counter movement of one traced pass."""
    table: Dict[str, Dict[str, float]] = {}
    for record in spans:
        if not is_layer(record.name):
            continue
        row = table.setdefault(record.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += record.self_time
        for key, moved in record.counters.items():
            row[key] = row.get(key, 0.0) + moved
    return table


def chrome_trace(spans: List[SpanRecord]) -> Dict[str, object]:
    """Spans as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)."""
    origin = min((record.start for record in spans), default=0.0)
    events = [
        {
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "ph": "X",
            "ts": (record.start - origin) * 1e6,
            "dur": record.duration * 1e6,
            "pid": 0,
            "tid": 0,
            "args": record.counters,
        }
        for record in sorted(spans, key=lambda r: (r.start, r.depth))
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
