"""Typed request/response contract of the versioned ``/v1`` service API.

This module is the contract: every ``/v1`` body is produced by one of
these dataclasses:

========================= ==============================================
:class:`SubmitRequest`    parsed + validated ``POST /v1/jobs`` body
:class:`SubmitAccepted`   the 202 acknowledgement
:class:`JobStatus`        one job's lifecycle view (``GET /v1/jobs/<id>``)
:class:`JobListing`       paginated tenant listing (``GET /v1/jobs``)
:class:`StatsResponse`    the ``result`` of the ``/v1/stats`` envelope
:class:`ErrorBody`        every non-2xx body, with a machine ``code``
========================= ==============================================

Validation failures raise :class:`ProtocolError`, which carries a ready
:class:`ErrorBody`; the server maps it straight to a structured 400.
Machine-readable error codes are enumerated in :data:`ERROR_CODES` and
are part of the API contract (clients dispatch on ``code``, never on
message text).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .jobs import SERVICE_COMMANDS, InvalidOptionsError, flow_options
from .queue import ServiceError, ServiceJob

#: The versioned path prefix; every route lives under it.
API_PREFIX = "/v1"

#: Machine-readable error codes a ``/v1`` response may carry, by status.
ERROR_CODES = {
    "bad_json": 400,          # body is not valid JSON
    "invalid_body": 400,      # JSON but not an object
    "invalid_field": 400,     # a known field has the wrong type/value
    "unknown_command": 400,   # command outside SERVICE_COMMANDS
    "job_error": 400,         # the engine rejected the submission payload
    "unknown_job": 404,       # job id not (or no longer) known
    "not_found": 404,         # no such route
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "quota_exceeded": 429,    # tenant pending-job quota hit (retryable)
    "worker_crashed": 500,    # job lost to a worker crash twice
    "internal": 500,
}

#: Fields of a submission body the protocol type-checks; ``options``
#: must also build the :class:`~repro.flows.FlowOptions` its job runs
#: with, and everything else is passed through to the engine untouched.
_TYPED_FIELDS: Tuple[Tuple[str, type, str], ...] = (
    ("command", str, "string"),
    ("design", str, "string"),
    ("suspect", str, "string"),
    ("format", str, "string"),
    ("tenant", str, "string"),
    ("map_style", str, "string"),
    ("n_copies", int, "integer"),
    ("options", dict, "object"),
)


@dataclass(frozen=True)
class ErrorBody:
    """A structured non-2xx response body.

    ``error`` is the human-readable message; ``code`` is the
    machine-readable contract; ``details`` are merged
    into the body top-level (e.g. the valid ``commands`` list).
    """

    error: str
    code: str
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def status(self) -> int:
        return ERROR_CODES.get(self.code, 500)

    def as_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.error, "code": self.code}
        for key, value in self.details.items():
            body.setdefault(key, value)
        return body


class ProtocolError(ServiceError):
    """A submission that violates the typed contract (structured 400)."""

    def __init__(self, code: str, message: str, **details: Any) -> None:
        super().__init__(message, stage="service")
        self.code = code
        self.details = details

    @property
    def body(self) -> ErrorBody:
        return ErrorBody(error=self.message, code=self.code,
                         details=dict(self.details))


@dataclass(frozen=True)
class SubmitRequest:
    """A validated job submission.

    ``payload`` is the full body (typed fields checked, engine options
    passed through); ``command`` and ``tenant`` are lifted out because
    the queue routes on them.
    """

    command: str
    tenant: str
    payload: Dict[str, Any]

    @classmethod
    def parse(
        cls,
        payload: Any,
        headers: Optional[Mapping[str, str]] = None,
    ) -> "SubmitRequest":
        """Validate a decoded submission body (raises :class:`ProtocolError`)."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                "invalid_body",
                f"submission body must be a JSON object, "
                f"got {type(payload).__name__}",
            )
        for name, expected, label in _TYPED_FIELDS:
            if name in payload and not isinstance(payload[name], expected):
                raise ProtocolError(
                    "invalid_field",
                    f"field {name!r} must be a {label}, "
                    f"got {type(payload[name]).__name__}",
                    field=name,
                )
        command = payload.get("command")
        if command not in SERVICE_COMMANDS:
            raise ProtocolError(
                "unknown_command",
                f"unknown command {command!r}",
                commands=list(SERVICE_COMMANDS),
            )
        try:
            flow_options(payload)
        except InvalidOptionsError as exc:
            raise ProtocolError(
                "invalid_field", exc.message, field="options"
            ) from exc
        tenant = payload.get("tenant")
        if not tenant and headers:
            tenant = headers.get("x-tenant")
        return cls(command=command, tenant=str(tenant or "anonymous"),
                   payload=payload)


@dataclass(frozen=True)
class SubmitAccepted:
    """The 202 acknowledgement for an accepted submission."""

    job_id: str
    status: str
    tenant: str
    poll: str
    stream: str

    @classmethod
    def from_job(cls, job: ServiceJob) -> "SubmitAccepted":
        return cls(
            job_id=job.job_id,
            status=job.status,
            tenant=job.tenant,
            poll=f"{API_PREFIX}/jobs/{job.job_id}",
            stream=f"{API_PREFIX}/jobs/{job.job_id}/events",
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "tenant": self.tenant,
            "poll": self.poll,
            "stream": self.stream,
        }


@dataclass(frozen=True)
class JobStatus:
    """One job's lifecycle view; the body of ``GET /v1/jobs/<id>``.

    The field set matches :meth:`ServiceJob.describe` exactly (the SSE
    ``status`` frames use the same shape), plus the result ``envelope``
    once the job is terminal.
    """

    job_id: str
    tenant: str
    command: str
    status: str
    attempts: int
    created: float
    started: Optional[float]
    finished: Optional[float]
    error: Optional[str]
    error_code: Optional[str]
    envelope: Optional[Dict[str, Any]] = None

    @classmethod
    def from_job(
        cls, job: ServiceJob, include_envelope: bool = True
    ) -> "JobStatus":
        return cls(
            envelope=job.envelope if include_envelope else None,
            **job.describe(),
        )

    def as_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "command": self.command,
            "status": self.status,
            "attempts": self.attempts,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "error_code": self.error_code,
        }
        if self.envelope is not None:
            body["envelope"] = self.envelope
        return body


@dataclass(frozen=True)
class JobListing:
    """Paginated job enumeration; the body of ``GET /v1/jobs``.

    ``total`` counts every job matching the tenant filter, so clients
    page with ``offset + len(jobs) < total``.  Envelopes are never
    inlined here — a listing of thousands of terminal jobs must stay
    cheap; fetch ``/v1/jobs/<id>`` for results.
    """

    jobs: List[JobStatus]
    total: int
    limit: int
    offset: int
    tenant: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": [status.as_dict() for status in self.jobs],
            "total": self.total,
            "limit": self.limit,
            "offset": self.offset,
            "tenant": self.tenant,
        }


@dataclass(frozen=True)
class StatsResponse:
    """The ``result`` section of the ``/v1/stats`` envelope."""

    uptime_s: float
    commands: Sequence[str]
    jobs: Dict[str, int]
    by_status: Dict[str, int]
    pending_by_tenant: Dict[str, int]
    queue_depth: int
    executor: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "uptime_s": self.uptime_s,
            "commands": list(self.commands),
            "jobs": dict(self.jobs),
            "by_status": dict(self.by_status),
            "pending_by_tenant": dict(self.pending_by_tenant),
            "queue_depth": self.queue_depth,
            "executor": dict(self.executor),
        }


__all__ = [
    "API_PREFIX",
    "ERROR_CODES",
    "ErrorBody",
    "JobListing",
    "JobStatus",
    "ProtocolError",
    "StatsResponse",
    "SubmitAccepted",
    "SubmitRequest",
]
