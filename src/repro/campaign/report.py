"""Fleet reporting: aggregate a campaign DB into JSON and HTML reports.

:func:`build_report` is a pure read of the result database — it can run
against a live campaign (WAL readers don't block the scheduler) or a
finished one, from any process.  The JSON payload is the contract; the
HTML view is a self-contained single file rendered from the same dict,
in the spirit of DAVOS's Reportbuilder.

Report sections:

``totals``
    Job counts per lifecycle state, completion/clean flags.
``throughput``
    Executed-job seconds, wall-rate, per-kind timing percentiles.
``cache``
    Fleet-level artifact-store metrics summed from the per-job store
    hit/miss deltas that job executors attach to their results.
``fingerprint``
    Per-design verification breakdown for ``fingerprint`` campaigns:
    verdict counts, tier histogram, budget-degradation count, overheads.
``injectors``
    Per-injector robustness matrix for ``inject`` / ``inject-text``
    campaigns: outcome histogram plus the acceptable/violation split.
``ledger``
    The retry / timeout / crash event histogram and the most recent
    entries — the campaign's incident log.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, List, Optional, Sequence

from ..telemetry.metrics import safe_rate
from .store import JobRow, JobStore, TERMINAL_STATES

#: Ledger entries (newest first) a report lists.
RECENT_EVENTS = 50


def _percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile (no numpy dependency)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _fingerprint_section(rows: Sequence[JobRow]) -> Dict[str, Any]:
    by_design: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if row.kind != "fingerprint" or row.verdict is None:
            continue
        entry = by_design.setdefault(row.design, {
            "copies": 0,
            "equivalent": 0,
            "proven": 0,
            "budget_degraded": 0,
            "tiers": {},
            "area_overheads": [],
        })
        verdict = row.verdict
        entry["copies"] += 1
        entry["equivalent"] += bool(verdict.get("equivalent"))
        entry["proven"] += bool(verdict.get("proven"))
        entry["budget_degraded"] += bool(verdict.get("budget_hit"))
        tier = verdict.get("tier", "?")
        entry["tiers"][tier] = entry["tiers"].get(tier, 0) + 1
        if verdict.get("area_overhead") is not None:
            entry["area_overheads"].append(verdict["area_overhead"])
    for entry in by_design.values():
        overheads = entry.pop("area_overheads")
        entry["mean_area_overhead"] = (
            sum(overheads) / len(overheads) if overheads else None
        )
    return by_design


def _injector_section(rows: Sequence[JobRow]) -> Dict[str, Dict[str, Any]]:
    """The robustness matrix: injector -> outcome histogram + verdict."""
    matrix: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if row.kind == "fingerprint" or row.verdict is None:
            continue
        injector = row.params.get("injector", "?")
        entry = matrix.setdefault(injector, {
            "trials": 0,
            "outcomes": {},
            "acceptable": 0,
            "violations": 0,
            "mismatches_detected": 0,
        })
        verdict = row.verdict
        entry["trials"] += 1
        outcome = verdict.get("outcome", "?")
        entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        if verdict.get("acceptable"):
            entry["acceptable"] += 1
        else:
            entry["violations"] += 1
        entry["mismatches_detected"] += bool(verdict.get("mismatch_detected"))
    return matrix


def _cache_section(rows: Sequence[JobRow]) -> Dict[str, Any]:
    """Fleet-level artifact-store metrics from per-job cache deltas.

    Each ``done`` job row may carry the store counter growth its own
    execution caused (see :func:`repro.campaign.jobs.execute_payload`).
    Summing the deltas gives exactly the fleet's cache traffic even
    across worker processes, resumed runs, and mixed campaigns — a warm
    job is one whose delta recomputed nothing (hits without misses).
    """
    section: Dict[str, Any] = {
        "jobs_with_cache": 0,
        "hits": 0,
        "misses": 0,
        "hit_rate": None,
        "warm_jobs": 0,
        "counters": {},
    }
    counters: Dict[str, int] = {}
    for row in rows:
        delta = row.cache
        if delta is None:
            continue
        section["jobs_with_cache"] += 1
        hits = int(delta.get("hits", 0))
        misses = int(delta.get("misses", 0))
        section["hits"] += hits
        section["misses"] += misses
        if hits > 0 and misses == 0:
            section["warm_jobs"] += 1
        for key, value in delta.get("counters", {}).items():
            if key == "entries":
                continue
            counters[key] = counters.get(key, 0) + int(value)
    looked_up = section["hits"] + section["misses"]
    if looked_up:
        section["hit_rate"] = section["hits"] / looked_up
    section["counters"] = dict(sorted(counters.items()))
    return section


def _throughput_section(rows: Sequence[JobRow]) -> Dict[str, Any]:
    seconds = [row.seconds for row in rows
               if row.status == "done" and row.seconds is not None]
    total = sum(seconds)
    return {
        "jobs_timed": len(seconds),
        "job_seconds_total": total,
        "job_seconds_mean": safe_rate(total, len(seconds)),
        "job_seconds_p50": _percentile(seconds, 0.50),
        "job_seconds_p95": _percentile(seconds, 0.95),
    }


def build_report(db_path: str) -> Dict[str, Any]:
    """Aggregate one campaign DB into the JSON report payload (with the
    newest :data:`RECENT_EVENTS` events)."""
    with JobStore(db_path) as store:
        spec = store.load_spec()
        rows = store.all_jobs()
        counts = store.counts()
        event_counts = store.event_counts()
        events = store.events(limit=RECENT_EVENTS)
        sources = store.design_sources()
    n_jobs = len(rows)
    terminal = sum(counts.get(state, 0) for state in TERMINAL_STATES)
    failures = [
        {
            "job_id": row.job_id,
            "design": row.design,
            "params": row.params,
            "status": row.status,
            "attempts": row.attempts,
            "crashes": row.crashes,
            "error_type": row.error_type,
            "error": row.error,
        }
        for row in rows
        if row.status in ("failed", "faulty")
    ]
    return {
        "db_path": db_path,
        "spec": None if spec is None else json.loads(spec.to_json()),
        "designs": sources,
        "totals": {
            "n_jobs": n_jobs,
            "counts": counts,
            "terminal": terminal,
            "complete": n_jobs > 0 and terminal == n_jobs,
            "clean": not (counts.get("failed") or counts.get("faulty")),
        },
        "throughput": _throughput_section(rows),
        "cache": _cache_section(rows),
        "fingerprint": _fingerprint_section(rows),
        "injectors": _injector_section(rows),
        "failures": failures,
        "ledger": {
            "event_counts": event_counts,
            "recent": events,
        },
    }


# --------------------------------------------------------------------- #
# HTML rendering
# --------------------------------------------------------------------- #

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1a1a2e; }
h1 { border-bottom: 2px solid #16213e; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .8rem 0 1.4rem; }
th, td { border: 1px solid #cbd5e1; padding: .3rem .7rem; text-align: left; }
th { background: #f1f5f9; }
.ok { color: #15803d; font-weight: 600; }
.bad { color: #b91c1c; font-weight: 600; }
code { background: #f1f5f9; padding: .1rem .3rem; border-radius: 3px; }
"""


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{html.escape('' if cell is None else str(cell))}</td>"
            for cell in row
        ) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def render_html(report: Dict[str, Any]) -> str:
    """The JSON report as one self-contained HTML page."""
    totals = report["totals"]
    verdict = (
        '<span class="ok">CLEAN</span>' if totals["clean"]
        else '<span class="bad">FAILURES</span>'
    )
    progress = (
        '<span class="ok">complete</span>' if totals["complete"]
        else f'<span class="bad">{totals["terminal"]}/{totals["n_jobs"]} terminal</span>'
    )
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>campaign report</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>Campaign report — <code>{html.escape(report['db_path'])}</code></h1>",
        f"<p>{progress} · {verdict}</p>",
        "<h2>Totals</h2>",
        _table(["state", "jobs"], sorted(totals["counts"].items())),
    ]
    throughput = report["throughput"]
    if throughput["jobs_timed"]:
        parts += [
            "<h2>Throughput</h2>",
            _table(
                ["jobs timed", "total s", "mean s", "p50 s", "p95 s"],
                [[
                    throughput["jobs_timed"],
                    f"{throughput['job_seconds_total']:.2f}",
                    f"{throughput['job_seconds_mean']:.3f}",
                    f"{throughput['job_seconds_p50']:.3f}",
                    f"{throughput['job_seconds_p95']:.3f}",
                ]],
            ),
        ]
    cache = report.get("cache") or {}
    if cache.get("jobs_with_cache"):
        hit_rate = cache["hit_rate"]
        parts += [
            "<h2>Artifact cache</h2>",
            _table(
                ["jobs with cache", "hits", "misses", "hit rate",
                 "warm jobs", "top counters"],
                [[
                    cache["jobs_with_cache"],
                    cache["hits"],
                    cache["misses"],
                    "-" if hit_rate is None else f"{hit_rate:.1%}",
                    cache["warm_jobs"],
                    ", ".join(
                        f"{k}={v}"
                        for k, v in list(cache["counters"].items())[:6]
                    ) or "-",
                ]],
            ),
        ]
    if report["fingerprint"]:
        rows = [
            [design, e["copies"], e["equivalent"], e["proven"],
             e["budget_degraded"],
             ", ".join(f"{t}={n}" for t, n in sorted(e["tiers"].items())),
             ("-" if e["mean_area_overhead"] is None
              else f"{e['mean_area_overhead']:.2%}")]
            for design, e in sorted(report["fingerprint"].items())
        ]
        parts += [
            "<h2>Fingerprint verification</h2>",
            _table(
                ["design", "copies", "equivalent", "proven", "budget-degraded",
                 "tiers", "mean area overhead"],
                rows,
            ),
        ]
    if report["injectors"]:
        rows = [
            [injector, e["trials"],
             ", ".join(f"{o}={n}" for o, n in sorted(e["outcomes"].items())),
             e["acceptable"], e["violations"], e["mismatches_detected"]]
            for injector, e in sorted(report["injectors"].items())
        ]
        parts += [
            "<h2>Injector robustness matrix</h2>",
            _table(
                ["injector", "trials", "outcomes", "acceptable", "violations",
                 "mismatch detected"],
                rows,
            ),
        ]
    if report["failures"]:
        rows = [
            [f["job_id"], f["design"], json.dumps(f["params"]), f["status"],
             f["attempts"], f["crashes"], f["error_type"], f["error"]]
            for f in report["failures"]
        ]
        parts += [
            "<h2>Failures</h2>",
            _table(
                ["job", "design", "params", "status", "attempts", "crashes",
                 "error type", "error"],
                rows,
            ),
        ]
    ledger = report["ledger"]
    if ledger["event_counts"]:
        parts += [
            "<h2>Retry / crash ledger</h2>",
            _table(["event", "count"], sorted(ledger["event_counts"].items())),
            "<h3>Recent events</h3>",
            _table(
                ["job", "event", "detail"],
                [[e["job_id"], e["kind"], e["detail"]] for e in ledger["recent"]],
            ),
        ]
    parts.append("</body></html>")
    return "".join(parts)


def write_report(db_path: str, out_dir: str) -> Dict[str, str]:
    """Build and write ``report.json`` + ``report.html`` under ``out_dir``.

    Returns ``{"json": <path>, "html": <path>}``.
    """
    report = build_report(db_path)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    html_path = os.path.join(out_dir, "report.html")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(html_path, "w", encoding="utf-8") as handle:
        handle.write(render_html(report))
    return {"json": json_path, "html": html_path}


__all__ = ["build_report", "render_html", "write_report"]
