"""A8 — Artifact-store warm-vs-cold submission latency.

Times one full service submission (design resolution, IR compile, base
CNF encode, ODC location catalog, warm CEC session — everything
:func:`repro.service.jobs.run_service_job` does for a ``locate``) cold
against an identical resubmission served from the content-addressed
artifact store (:mod:`repro.store`), on the random-logic suite designs.
Also times :func:`repro.store.prepare_design` — the cache-priming
primitive — cold vs warm for the per-kind breakdown.

Writes ``BENCH_store.json`` at the repository root, both when run
standalone (``python benchmarks/bench_store.py``) and under pytest.

Acceptance gate: >= 5x warm-vs-cold submission speedup on the largest
random-logic design (``des``, 3544 gates).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import build_benchmark  # noqa: E402
from repro.service.jobs import run_service_job  # noqa: E402
from repro.store import ArtifactStore, prepare_design, store_activated  # noqa: E402

#: Random-logic suite designs measured, smallest to largest.
DESIGNS = ("vda", "k2", "des")

#: The design the >= 5x acceptance gate applies to.
LARGEST = "des"

MIN_SPEEDUP = 5.0

RECORD_PATH = REPO_ROOT / "BENCH_store.json"


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_submission(name: str, repeats: int = 3) -> dict:
    """Cold-vs-warm ``locate`` submission latency for one suite design."""
    payload = {"design": name, "format": "bench"}
    with store_activated(ArtifactStore()) as store:
        start = time.perf_counter()
        cold_envelope = run_service_job("locate", dict(payload))
        cold_seconds = time.perf_counter() - start
        warm_seconds = _best_of(
            lambda: run_service_job("locate", dict(payload)), repeats
        )
        warm_envelope = run_service_job("locate", dict(payload))
        snapshot = store.cache_snapshot()
    if cold_envelope["result"] != warm_envelope["result"]:
        raise AssertionError(f"{name}: warm result diverged from cold")
    if warm_envelope["cache"]["misses"] != 0:
        raise AssertionError(f"{name}: warm submission still recomputed")
    return {
        "design": name,
        "n_locations": cold_envelope["result"]["n_locations"],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "store_hits": snapshot["hits"],
        "store_misses": snapshot["misses"],
    }


def measure_prepare(name: str, repeats: int = 3) -> dict:
    """Cold-vs-warm :func:`prepare_design` (IR + CNF + catalog + session)."""
    circuit = build_benchmark(name)
    store = ArtifactStore()
    start = time.perf_counter()
    prepare_design(circuit, store=store)
    cold_seconds = time.perf_counter() - start
    warm_seconds = _best_of(
        lambda: prepare_design(circuit, store=store), repeats
    )
    snapshot = store.cache_snapshot()
    return {
        "design": name,
        "gates": circuit.n_gates,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "misses_by_kind": {
            kind: snapshot.get(f"miss.{kind}", 0)
            for kind in ("ir", "cnf", "catalog", "session")
        },
    }


def collect(designs=DESIGNS) -> dict:
    """Run all measurements and return the perf record."""
    submission: List[dict] = []
    prepare: List[dict] = []
    for name in designs:
        submission.append(measure_submission(name))
        prepare.append(measure_prepare(name))
    return {
        "bench": "store",
        "python": platform.python_version(),
        "submission": submission,
        "prepare": prepare,
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n")


def test_store_warm_speedup():
    """>= 5x warm submission speedup on ``des``; emits the record."""
    record = collect()
    write_record(record)
    by_design: Dict[str, dict] = {
        row["design"]: row for row in record["submission"]
    }
    assert by_design[LARGEST]["speedup"] >= MIN_SPEEDUP, by_design[LARGEST]
    # Warm preparation must also never lose to cold.
    assert all(row["speedup"] > 1.0 for row in record["prepare"])


def main() -> None:
    record = collect()
    write_record(record)
    print(f"wrote {RECORD_PATH}")
    for section in ("submission", "prepare"):
        for row in record[section]:
            print(
                f"{section:<10} {row['design']:<6} "
                f"cold {row['cold_seconds']*1e3:8.2f} ms  "
                f"warm {row['warm_seconds']*1e3:7.2f} ms  "
                f"speedup {row['speedup']:8.1f}x"
            )
    largest = next(
        r for r in record["submission"] if r["design"] == LARGEST
    )
    if largest["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup {largest['speedup']:.2f}x below the {MIN_SPEEDUP}x gate"
        )


if __name__ == "__main__":
    main()
