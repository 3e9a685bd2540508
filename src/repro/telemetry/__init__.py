"""Tracing + metrics for the fingerprinting pipeline (off by default).

The paper's evaluation is entirely about per-stage costs — mapping
area/delay, location counts, verification effort — so every subsystem in
the pipeline publishes into this one layer instead of keeping private
``perf_counter`` bookkeeping:

* :func:`span` — nested wall-time spans with attributes
  (``span("cec.verify", outputs=8)``); a disabled tracer returns one
  shared no-op object, so hot paths pay a single flag test.
* :func:`count` / :func:`gauge` / :func:`observe` — guarded updates to
  the process-local :class:`MetricsRegistry`.
* :mod:`export <repro.telemetry.export>` — Chrome trace-event files
  (``chrome://tracing`` / Perfetto) and the JSON telemetry snapshot
  embedded in every CLI ``--json`` envelope.

Enable via ``--trace FILE`` / ``--metrics`` on any CLI subcommand, via
``FlowOptions(trace=True, metrics=True)`` on the :mod:`repro.api`
facade, or directly with :func:`enable` / :func:`enabled`.  Span trees
and metric snapshots serialize to plain dicts, which is how pool
workers (:mod:`repro.workers`) report their telemetry back to the parent
process.  See ``docs/OBSERVABILITY.md`` for the span
taxonomy and how to read a trace.
"""

from .core import (
    NOOP_SPAN,
    Span,
    Tracer,
    disable,
    drain_spans,
    enable,
    enabled,
    get_tracer,
    metrics_enabled,
    span,
    span_from_dict,
    tracing_enabled,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    count,
    drain_metrics,
    gauge,
    get_registry,
    observe,
    safe_rate,
)
from .export import telemetry_snapshot, to_chrome_trace, write_chrome_trace

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
    "Histogram",
    "MetricsRegistry",
    "count",
    "drain_metrics",
    "gauge",
    "get_registry",
    "observe",
    "safe_rate",
    "telemetry_snapshot",
    "to_chrome_trace",
    "write_chrome_trace",
]
