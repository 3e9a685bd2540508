"""Service job execution — one submission to one result envelope.

:func:`run_service_job` is the synchronous heart of the service: it runs
in one of the server's worker processes, one job at a time, resolves the
submitted design text, dispatches to the same engines the CLI uses, and
wraps the result in the unified JSON envelope (:mod:`repro.envelope`)
with the job's telemetry snapshot and — when an artifact store is
active — the store counter *delta* attributable to this job, so a client
can read directly from its response whether its submission was served
warm.

Design references in a submission payload are text plus a format::

    {"design": "<blif or verilog source>", "format": "blif"}
    {"design": "des", "format": "bench"}        # bundled suite circuit

``blif`` sources are technology-mapped exactly like CLI ``.blif`` file
arguments (``map_style`` honoured); ``verilog`` is structural Verilog
over the generic library; ``bench`` names a circuit of the calibrated
benchmark suite.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .. import telemetry
from ..budget import Budget
from ..envelope import build_envelope, cache_delta
from ..errors import DesignLoadError, ReproError
from ..fingerprint.locations import FinderOptions
from ..flows.ladder import LadderConfig
from ..flows.options import FlowOptions
from ..netlist.circuit import Circuit
from ..store.core import active_store
from .queue import ServiceError

#: Commands a submission may name, mirroring the CLI subcommands that
#: make sense against an in-memory design.
SERVICE_COMMANDS = ("fingerprint", "batch", "locate", "verify", "prepare")


class UnknownCommandError(ServiceError):
    """A submission named a command the service does not speak (HTTP 400)."""


class InvalidOptionsError(ServiceError):
    """A submission's ``options`` do not build valid flow options (HTTP 400)."""


def resolve_design(payload: Dict[str, Any], key: str = "design") -> Circuit:
    """Materialize the circuit a submission references (see module doc)."""
    source = payload.get(key)
    if not isinstance(source, str) or not source:
        raise DesignLoadError(
            f"submission is missing a {key!r} design source", stage="service"
        )
    fmt = payload.get("format", "blif")
    if fmt == "bench":
        from ..bench import build_benchmark

        try:
            return build_benchmark(source)
        except KeyError as exc:
            raise DesignLoadError(str(exc), stage="service") from exc
    if fmt == "blif":
        from ..netlist.blif import parse_blif
        from ..techmap.mapper import map_network

        return map_network(
            parse_blif(source), style=payload.get("map_style", "aoi")
        )
    if fmt == "verilog":
        from ..netlist.verilog import parse_verilog

        return parse_verilog(source)
    raise DesignLoadError(
        f"unknown design format {fmt!r} (blif, verilog, or bench)",
        stage="service",
    )


def flow_options(
    payload: Dict[str, Any], tenant_budget: Optional[Budget] = None
) -> FlowOptions:
    """Build :class:`FlowOptions` from the submission's ``options`` dict.

    A tenant budget (from its :class:`~repro.service.queue.TenantQuota`)
    overrides the ladder's SAT budget unconditionally — quotas are the
    server operator's policy, not the client's.  So is parallelism: the
    service runs ``--workers`` processes, and a job may not start a pool
    of its own, so ``jobs`` must stay 1.  The ``finder``, ``ladder`` and
    ``ladder.sat_budget`` objects are built into their option types
    here.  Raises :class:`InvalidOptionsError` for unknown, wrong-typed
    or out-of-range options; the protocol calls this at submission, so
    bad options are a 400.
    """
    options = dict(payload.get("options") or {})
    ladder = options.pop("ladder", None)
    try:
        if isinstance(options.get("finder"), dict):
            options["finder"] = FinderOptions(**options["finder"])
        if isinstance(ladder, dict):
            ladder = dict(ladder)
            if isinstance(ladder.get("sat_budget"), dict):
                ladder["sat_budget"] = Budget(**ladder["sat_budget"])
            ladder = LadderConfig(**ladder)
        if tenant_budget is not None:
            ladder = dataclasses.replace(
                ladder or LadderConfig(), sat_budget=tenant_budget
            )
        if ladder is not None:
            options["ladder"] = ladder
        opts = FlowOptions(**options)
    except (TypeError, ValueError) as exc:
        raise InvalidOptionsError(
            f"bad options: {exc}", stage="service"
        ) from exc
    if opts.jobs != 1:
        raise InvalidOptionsError(
            f"options.jobs must be 1, got {opts.jobs!r}: the service's "
            "parallelism is its worker count (--workers)",
            stage="service",
        )
    return opts


def _flow_result_dict(result) -> Dict[str, Any]:
    """Compact JSON view of a single-copy :class:`FlowResult`."""
    payload: Dict[str, Any] = {
        "design": result.base.name,
        "n_gates": result.baseline_metrics.gates,
        "n_locations": result.capacity.n_locations,
        "n_slots": result.capacity.n_slots,
        "bits": result.capacity.bits,
        "n_modifications": result.copy.n_active,
        "overhead": {
            "area": result.overhead.area,
            "delay": result.overhead.delay,
            "power": result.overhead.power,
        },
    }
    if result.verification is not None:
        payload["verification"] = result.verification.as_dict()
    elif result.equivalence is not None:
        payload["equivalent"] = result.equivalence.equivalent
    return payload


def execute_command(
    command: str,
    payload: Dict[str, Any],
    tenant_budget: Optional[Budget] = None,
) -> Dict[str, Any]:
    """Run one service command and return its ``result`` dict."""
    from .. import api

    opts = flow_options(payload, tenant_budget)
    if command == "batch":
        design = resolve_design(payload)
        result = api.batch(design, int(payload.get("n_copies", 8)), opts)
        return result.as_dict()
    if command == "fingerprint":
        design = resolve_design(payload)
        return _flow_result_dict(api.fingerprint(design, opts))
    if command == "locate":
        from ..fingerprint import capacity

        design = resolve_design(payload)
        catalog = api.locate(design, opts)
        report = capacity(catalog)
        return {
            "design": design.name,
            "n_gates": design.n_gates,
            "n_locations": report.n_locations,
            "n_slots": report.n_slots,
            "n_variants": report.n_variants,
            "bits": report.bits,
        }
    if command == "verify":
        left = resolve_design(payload)
        right = resolve_design(payload, key="suspect")
        return api.verify(left, right, opts).as_dict()
    if command == "prepare":
        from ..hashing import circuit_digest
        from ..store import prepare_design

        design = resolve_design(payload)
        catalog = prepare_design(design, opts.resolved_finder())
        return {
            "design": design.name,
            "digest": circuit_digest(design),
            "n_locations": catalog.n_locations,
            "prepared": active_store() is not None,
        }
    raise UnknownCommandError(
        f"unknown service command {command!r} "
        f"(valid: {', '.join(SERVICE_COMMANDS)})",
        stage="service",
    )


def run_service_job(
    command: str,
    payload: Dict[str, Any],
    tenant_budget: Optional[Budget] = None,
    include_spans: bool = False,
) -> Dict[str, Any]:
    """Execute one job and build its full response envelope.

    Runs in a service worker process, which runs one job at a time, so
    resetting the registry here and draining tracer + registry at the
    end scopes the telemetry snapshot (and the store counter delta) to
    exactly this job — a warm resubmission's envelope shows *zero*
    ``ir.compile`` / encode / catalog work of its own, not a cumulative
    blur over earlier jobs.
    """
    telemetry.get_registry().reset()
    store = active_store()
    before = store.cache_snapshot() if store is not None else None
    error: Optional[Dict[str, Any]] = None
    with telemetry.span("service.job", command=command) as job_span:
        try:
            result = execute_command(command, payload, tenant_budget)
        except ReproError as exc:
            job_span.set(error=type(exc).__name__)
            error = {"error": exc.diagnostic(), "error_type": type(exc).__name__}
            result = error
    spans = telemetry.get_tracer().drain()
    snapshot = telemetry.telemetry_snapshot(spans, include_spans=include_spans)
    cache = None
    if store is not None:
        cache = cache_delta(before, store.cache_snapshot())
    envelope = build_envelope(command, result, snapshot, cache)
    if error is not None:
        envelope["ok"] = False
        raise ServiceJobFailed(envelope)
    envelope["ok"] = True
    return envelope


class ServiceJobFailed(Exception):
    """Carries the error envelope of a failed job to the queue layer."""

    def __init__(self, envelope: Dict[str, Any]) -> None:
        super().__init__(envelope["result"].get("error", "job failed"))
        self.envelope = envelope


__all__ = [
    "SERVICE_COMMANDS",
    "InvalidOptionsError",
    "ServiceJobFailed",
    "UnknownCommandError",
    "execute_command",
    "flow_options",
    "resolve_design",
    "run_service_job",
]
