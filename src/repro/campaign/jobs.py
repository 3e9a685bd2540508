"""Campaign job executors — the code that runs one job row anywhere.

One payload dict goes in (job coordinates + attempt + timeout), one result
dict comes out (``status`` ∈ ``done``/``error``/``timeout`` plus verdict
or diagnostics).  The same :func:`execute_payload` runs in three places:

* in-process, for serial campaigns (``jobs=1``);
* inside :class:`~repro.workers.WorkerPool` workers via
  :func:`execute_payload_pooled`, which hands the worker's telemetry
  spans/metrics back with the result (:func:`repro.workers.hand_off`);
* under :func:`~repro.campaign.timeouts.run_with_timeout`, always, so a
  hung job surfaces as a ``timeout`` result instead of wedging its worker.

Job kinds delegate to the canonical per-unit functions of the flows they
persist — :func:`repro.flows.batch.verify_one_value` for ``fingerprint``
jobs, :func:`repro.faultinject.run_one_injection` /
:func:`repro.faultinject.run_one_corruption` for the inject kinds — so a
campaign job's verdict is bit-identical to what the one-shot flow would
have recorded for the same coordinate.

Fault hooks (test-only, env-gated): :data:`repro.workers.CRASH_ENV`
(``REPRO_WORKER_CRASH``) makes a pool worker die with ``os._exit`` on
matching job ids (exercising crash quarantine), and
``REPRO_CAMPAIGN_HANG_JOBS`` makes matching jobs spin past their deadline
(exercising timeout quarantine, which is campaign policy).  Both accept
``job_id[:n]`` entries, firing only while the job's attempt ordinal is
below ``n`` (no ``:n`` means always).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

from .. import telemetry, workers
from ..flows.ladder import LadderConfig
from ..netlist.circuit import Circuit
from .spec import CampaignError
from .timeouts import JobTimeoutError, run_with_timeout

# Per-process campaign context: designs, spec knobs, lazily-built
# per-design state (catalog/codec/CEC session for fingerprint jobs,
# serialized text for inject-text jobs).
_CONTEXT: Dict[str, Any] = {}


def set_context(
    designs: Dict[str, Circuit],
    kind: str,
    seed: int,
    ladder: Optional[LadderConfig],
    measure_overheads: bool,
) -> None:
    """Install the campaign context in this process (serial or worker).

    Also activates the artifact store when ``REPRO_STORE_DIR`` is set, so
    every job of a campaign (and every campaign sharing that directory)
    reuses the per-design compiled IR, base CNF, location catalog and
    warm CEC session instead of rebuilding them per process.
    """
    from ..store import ensure_default_store

    ensure_default_store()
    _CONTEXT.clear()
    _CONTEXT.update(
        designs=designs,
        kind=kind,
        seed=seed,
        ladder=ladder,
        measure=measure_overheads,
        states={},
        texts={},
    )


def _design(name: str) -> Circuit:
    try:
        return _CONTEXT["designs"][name]
    except KeyError:
        raise CampaignError(
            f"worker has no design {name!r} in its campaign context",
            stage="campaign", design=name,
        ) from None


def _fingerprint_state(name: str) -> Dict[str, object]:
    states: Dict[str, Dict[str, object]] = _CONTEXT["states"]
    if name not in states:
        from ..flows.batch import build_worker_state

        states[name] = build_worker_state(
            _design(name), None, _CONTEXT["ladder"], _CONTEXT["measure"]
        )
    return states[name]


def _design_text(name: str) -> str:
    texts: Dict[str, str] = _CONTEXT["texts"]
    if name not in texts:
        from ..netlist.verilog import write_verilog

        texts[name] = write_verilog(_design(name))
    return texts[name]


def _run_fingerprint(design: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..flows.batch import verify_one_value

    record = verify_one_value(_fingerprint_state(design), int(params["value"]))
    payload = asdict(record)
    # Wall-clock time is execution state, not a verdict: dropping it keeps
    # stored verdicts a pure function of the job coordinates, so a resumed
    # campaign's rows compare bit-identical to an uninterrupted run's.
    # (Timing still lands in the job row's own `seconds` column.)
    payload.pop("seconds", None)
    return payload


def _run_inject(design: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..faultinject import ALL_MUTATORS, run_one_injection

    mutators = {mutator.name: mutator for mutator in ALL_MUTATORS}
    try:
        mutator = mutators[params["injector"]]
    except KeyError:
        raise CampaignError(
            f"unknown mutator {params['injector']!r}", stage="campaign"
        ) from None
    record = run_one_injection(
        _design(design), mutator, int(params["trial"]),
        seed=_CONTEXT["seed"], ladder=_CONTEXT["ladder"],
    )
    return record.as_dict()


def _run_inject_text(design: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..faultinject import ALL_CORRUPTORS, run_one_corruption
    from ..netlist.verilog import parse_verilog

    corruptors = {corruptor.name: corruptor for corruptor in ALL_CORRUPTORS}
    try:
        corruptor = corruptors[params["injector"]]
    except KeyError:
        raise CampaignError(
            f"unknown corruptor {params['injector']!r}", stage="campaign"
        ) from None
    record = run_one_corruption(
        design, _design_text(design), corruptor, int(params["trial"]),
        parser=parse_verilog, seed=_CONTEXT["seed"],
    )
    return record.as_dict()


_EXECUTORS: Dict[str, Callable[[str, Dict[str, Any]], Dict[str, Any]]] = {
    "fingerprint": _run_fingerprint,
    "inject": _run_inject,
    "inject-text": _run_inject_text,
}


def _hang() -> None:
    """Busy-spin (interruptible by SIGALRM, abandonable by the thread
    fallback) until something kills us — the deliberately hung job."""
    deadline = time.monotonic() + 3600.0
    while time.monotonic() < deadline:
        time.sleep(0.01)


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in the already-installed campaign context.

    Never raises for job-level problems: errors and timeouts come back as
    result statuses so the scheduler can apply its retry/quarantine
    policy uniformly across serial and pooled execution.
    """
    from ..envelope import cache_delta
    from ..store.core import active_store

    job_id = payload["job_id"]
    kind = payload["kind"]
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise CampaignError(f"unknown job kind {kind!r}", stage="campaign")
    hang = workers.env_hook_matches(
        "REPRO_CAMPAIGN_HANG_JOBS", job_id, payload.get("attempt", 0)
    )
    store = active_store()
    cache_before = None if store is None else store.cache_snapshot()
    start = time.perf_counter()
    result: Dict[str, Any] = {
        "job_id": job_id,
        "pid": os.getpid(),
        "verdict": None,
        "error": None,
        "error_type": None,
        "cache": None,
    }
    with telemetry.span("campaign.job", job_id=job_id, kind=kind,
                        design=payload["design"]) as job_span:
        try:
            verdict = run_with_timeout(
                (_hang if hang else
                 lambda: executor(payload["design"], payload["params"])),
                payload.get("timeout_s"),
            )
            result["status"] = "done"
            result["verdict"] = verdict
        except JobTimeoutError as exc:
            result["status"] = "timeout"
            result["error"] = str(exc)
            result["error_type"] = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 — classified, not swallowed
            result["status"] = "error"
            result["error"] = str(exc) or type(exc).__name__
            result["error_type"] = type(exc).__name__
        job_span.set(status=result["status"])
    result["seconds"] = time.perf_counter() - start
    if cache_before is not None:
        # Per-job artifact-store delta: what *this* job hit or recomputed.
        # The scheduler persists it with the job row and `campaign report`
        # aggregates the deltas into fleet-level cache metrics.
        result["cache"] = cache_delta(cache_before, store.cache_snapshot())
    telemetry.count(f"campaign.job_{result['status']}")
    return result


def execute_payload_pooled(payload: Dict[str, Any]) -> workers.Handoff:
    """Pool-worker task: the crash hook, the job, then the hand-off.

    The crash hook fires only in pool workers, so a serial campaign can
    never ``os._exit`` the caller's process.
    """
    workers.crash_hook(payload["job_id"], payload.get("attempt", 0))
    return workers.hand_off(execute_payload(payload))


__all__ = [
    "execute_payload",
    "execute_payload_pooled",
    "set_context",
]
