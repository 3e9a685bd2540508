"""Asyncio HTTP/JSON fingerprinting service (zero new dependencies).

One :class:`Server` owns four moving parts:

* an ``asyncio.start_server`` HTTP/1.1 front end (hand-rolled request
  parsing — the stdlib ships no async HTTP server, and the repo takes no
  third-party dependencies) speaking the versioned, typed ``/v1`` API
  (:mod:`repro.service.protocol`); any other path is a 404
  ``not_found``;
* the multi-tenant, tenant-fair :class:`~repro.service.queue.JobQueue`;
* the multi-process execution backend
  (:class:`~repro.service.executor.JobExecutor`): a dispatcher task
  feeds up to N worker *processes*, so CPU-bound jobs from different
  tenants overlap on multi-core hosts.  Every worker activates its own
  artifact store over a shared disk-tier root (cross-worker warmth);
  finished jobs ship their span trees, metric snapshots and store
  deltas back in the result envelope, which feeds SSE streaming,
  ``/v1/stats`` and per-job ``cache`` sections.  A worker crash breaks
  the pool: the server rebuilds it, requeues each in-flight job once,
  and fails a twice-crashed job with a structured ``worker_crashed``
  error.

The server activates an artifact store and switches metrics (and, with
``trace_path``, tracing) on for its process while it runs; shutdown
restores the telemetry flags and active store it found at start.

Endpoints (all JSON; responses use the CLI envelope where a command ran):

====== =========================== =======================================
GET    ``/v1/health``              liveness + version
GET    ``/v1/stats``               queue, tenant, executor, store stats
POST   ``/v1/jobs``                submit a typed SubmitRequest → 202
GET    ``/v1/jobs``                tenant-filtered listing w/ pagination
GET    ``/v1/jobs/<id>``           status, plus the envelope once terminal
GET    ``/v1/jobs/<id>/events``    server-sent events: spans → result
POST   ``/v1/shutdown``            graceful drain-then-stop
====== =========================== =======================================

Progress streaming: a running job's span tree rides back with its
result envelope; the server replays it to the job's SSE subscribers as
``event: span`` frames, followed by the final ``event: result`` frame
carrying the full envelope.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from ..envelope import active_cache_section, build_envelope
from ..errors import ReproError
from ..store.core import (
    ArtifactStore, activate_store, active_store, deactivate_store,
)
from .executor import BrokenProcessPool, JobExecutor
from .jobs import SERVICE_COMMANDS
from .protocol import (
    API_PREFIX,
    ErrorBody,
    JobListing,
    JobStatus,
    ProtocolError,
    StatsResponse,
    SubmitAccepted,
    SubmitRequest,
)
from .queue import (
    JobQueue,
    QuotaExceededError,
    ServiceJob,
    TenantQuota,
    UnknownJobError,
)

#: Submissions larger than this are rejected (413) before body read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Hard cap on one listing page (clients page with limit/offset).
MAX_LIST_LIMIT = 500

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class Server:
    """The long-running fingerprinting service (see module docstring).

    Args:
        host/port: Bind address; port 0 binds an ephemeral port
            (``self.port`` holds the real one after :meth:`start`).
        store: Artifact store to activate for the process, or ``None``
            to build a memory-only one.  Worker processes always share
            a *disk* tier: the store's root when it has one, otherwise
            a temporary directory owned (and removed) by the server.
        workers: Worker process count for the execution backend.
        default_quota: Quota applied to tenants without an explicit one.
        quotas: Per-tenant overrides, keyed by tenant name.
        trace_path: When set, spans of every job are accumulated and
            written as one Chrome trace file on shutdown (and job
            envelopes inline their span trees).
        max_requests: Shut down gracefully after this many completed
            jobs (CI use).
        drain_grace_s: Bound on the shutdown wait for in-flight jobs.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        store: Optional[ArtifactStore] = None,
        workers: int = 1,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        trace_path: Optional[str] = None,
        max_requests: Optional[int] = None,
        drain_grace_s: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.store = store
        self.workers = max(1, int(workers))
        self.default_quota = default_quota
        self.quotas = quotas
        self.trace_path = trace_path
        self.max_requests = max_requests
        self.drain_grace_s = drain_grace_s
        self.queue: Optional[JobQueue] = None
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._backend: Optional[JobExecutor] = None
        self._dispatch_task: Optional[asyncio.Task] = None
        self._active: set = set()
        self._slots: Optional[asyncio.Semaphore] = None
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._span_payloads: list = []
        self._store_tmp: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        #: (tracing, metrics, active store) as found at start; shutdown
        #: restores them, so a stopped server leaves no global state on.
        self._found: Optional[Tuple[bool, bool, Optional[ArtifactStore]]] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the socket, activate the store, start the backend."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._draining = False
        self.queue = JobQueue(self.default_quota, self.quotas)
        self._found = (
            telemetry.tracing_enabled(), telemetry.metrics_enabled(),
            active_store(),
        )
        if active_store() is None or self.store is not None:
            activate_store(self.store)
        self.store = active_store()
        telemetry.enable(trace=bool(self.trace_path), metrics=True)
        worker_root = self.store.root if self.store is not None else None
        if worker_root is None:
            # No disk tier configured: give the workers a private shared
            # root anyway, so artifacts made warm by one worker process
            # are warm for all of them.  Removed on shutdown.
            self._store_tmp = tempfile.mkdtemp(prefix="repro-service-store-")
            worker_root = self._store_tmp
        self._backend = JobExecutor(
            workers=self.workers,
            store_root=worker_root,
            memory_entries=(
                self.store.memory_entries if self.store is not None else 128
            ),
            include_spans=bool(self.trace_path),
        ).start()
        self._slots = asyncio.Semaphore(self.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._dispatch_task = asyncio.ensure_future(self._dispatcher())

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (or ``POST /v1/shutdown``)."""
        assert self._stop is not None
        await self._stop.wait()
        await self._shutdown_async()

    async def run_async(self) -> None:
        await self.start()
        await self.serve_forever()

    def run(self) -> None:
        """Run the server on a fresh event loop until shut down."""
        asyncio.run(self.run_async())

    def shutdown(self) -> None:
        """Request a graceful stop (safe from any thread, idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed — server is down

    async def _shutdown_async(self) -> None:
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Graceful drain: let every dispatched job finish (bounded) so
        # no verdict computed by a worker is thrown away at shutdown.
        if self._active:
            await asyncio.wait(set(self._active), timeout=self.drain_grace_s)
        if self._backend is not None:
            self._backend.shutdown(wait=True)
        if self.trace_path and self._span_payloads:
            from ..telemetry import span_from_dict, write_chrome_trace

            write_chrome_trace(
                self.trace_path,
                [span_from_dict(p) for p in self._span_payloads],
            )
        if self._store_tmp is not None:
            shutil.rmtree(self._store_tmp, ignore_errors=True)
            self._store_tmp = None
        if self._found is not None:
            trace_on, metrics_on, store = self._found
            self._found = None
            telemetry.disable()
            telemetry.enable(trace=trace_on, metrics=metrics_on)
            if store is None:
                deactivate_store()
            else:
                activate_store(store)

    # -------------------- test/embedding helpers ---------------------- #

    def start_in_thread(self, timeout: float = 30.0) -> "Server":
        """Run the whole server on a daemon thread; returns when bound.

        The embedding pattern behind the test suite and the load
        harness: the caller keeps its thread, talks HTTP to
        ``self.port``, and finally calls :meth:`stop_thread`.
        """
        ready = threading.Event()

        async def _main() -> None:
            await self.start()
            ready.set()
            await self.serve_forever()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_main()), daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        return self

    def stop_thread(self, timeout: float = 30.0) -> None:
        """Shut down a :meth:`start_in_thread` server and join its thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------ #
    # job dispatch (multi-process backend)
    # ------------------------------------------------------------------ #

    async def _dispatcher(self) -> None:
        """Feed queued jobs to the worker pool, one slot per worker.

        The semaphore keeps at most ``workers`` jobs dispatched, so
        tenant-fair ordering is decided by the queue at the moment a
        worker actually frees up, not by a long pool-internal backlog.
        """
        assert self.queue is not None and self._slots is not None
        while True:
            job = await self.queue.next_job()
            await self._slots.acquire()
            task = asyncio.ensure_future(self._run_one(job))
            self._active.add(task)
            task.add_done_callback(self._job_task_done)

    def _job_task_done(self, task: "asyncio.Task") -> None:
        self._active.discard(task)
        if self._slots is not None:
            self._slots.release()

    async def _run_one(self, job: ServiceJob) -> None:
        assert self.queue is not None and self._backend is not None
        self.queue.mark_running(job)
        budget = self.queue.quota_for(job.tenant).budget
        generation = self._backend.generation
        try:
            generation, future = self._backend.submit(
                job.command, job.payload, budget, job.attempts
            )
            pid, envelope = await asyncio.wrap_future(future)
        except BrokenProcessPool:
            # A worker died and took the pool with it.  Rebuild (first
            # observer wins), then salvage: requeue this job once; a
            # job that was in flight across two crashes is the likely
            # culprit and fails with a structured error.
            self._backend.rebuild(generation)
            if job.attempts < 1:
                self.queue.requeue(job)
            else:
                self.queue.mark_failed(
                    job,
                    "worker process crashed twice while executing this "
                    "job; not requeued again",
                    code="worker_crashed",
                )
                self._after_terminal()
            return
        except Exception as exc:  # noqa: BLE001 - job must not kill dispatch
            self.queue.mark_failed(
                job, f"{type(exc).__name__}: {exc}", code="internal"
            )
            self._after_terminal()
            return
        self._backend.note_result(pid)
        self._replay_spans(job, envelope)
        self._collect_spans(envelope)
        if envelope.get("ok"):
            self.queue.mark_done(job, envelope)
        else:
            job.envelope = envelope
            result = envelope.get("result") or {}
            self.queue.mark_failed(
                job, str(result.get("error", "job failed")), code="job_error"
            )
        self._after_terminal()

    def _after_terminal(self) -> None:
        assert self.queue is not None
        served = self.queue.counters["done"] + self.queue.counters["failed"]
        if (
            self.max_requests is not None
            and served >= self.max_requests
            and not self._draining
        ):
            self._draining = True
            asyncio.ensure_future(self._drain_then_stop())

    async def _drain_then_stop(self, grace_s: float = 10.0) -> None:
        """Stop once every finished job's result has reached a client.

        Closing the listening socket the instant the last job completes
        would race the client still polling ``GET /v1/jobs/<id>`` for
        its envelope; wait (bounded by ``grace_s``) until each terminal
        job has been collected at least once.
        """
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            uncollected = [
                job
                for job in self.queue._jobs.values()
                if job.terminal and not job.collected
            ]
            if not uncollected:
                break
            await asyncio.sleep(0.05)
        self._stop.set()

    def _collect_spans(self, envelope: Dict[str, Any]) -> None:
        if self.trace_path:
            self._span_payloads.extend(
                envelope.get("telemetry", {}).get("spans") or []
            )

    def _replay_spans(self, job: ServiceJob, envelope: Dict[str, Any]) -> None:
        """Forward the job's span tree to its SSE subscribers.

        The single-thread backend streamed spans live from a tracer
        listener; worker processes ship the tree back with the result
        instead, and it is replayed here (flattened, parents first)
        before the ``result`` frame.
        """
        if not job.subscribers:
            return
        spans = (envelope.get("telemetry") or {}).get("spans") or []
        stack = list(reversed(spans))
        while stack:
            payload = stack.pop()
            self.queue.publish(job, {
                "event": "span",
                "data": {
                    "name": payload.get("name"),
                    "duration": payload.get("duration"),
                    "attrs": payload.get("attrs", {}),
                },
            })
            stack.extend(reversed(payload.get("children") or []))

    # ------------------------------------------------------------------ #
    # HTTP front end
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return method, path, headers, b"__TOO_LARGE__"
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _error(self, writer: asyncio.StreamWriter, body: ErrorBody) -> None:
        await self._respond(writer, body.status, body.as_dict())

    @staticmethod
    def _match(method: str, path: str) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a version-stripped path to a route name."""
        if path == "/health":
            return ("health" if method == "GET" else "method_not_allowed"), None
        if path == "/stats":
            return ("stats" if method == "GET" else "method_not_allowed"), None
        if path == "/shutdown":
            return (
                "shutdown" if method == "POST" else "method_not_allowed"
            ), None
        if path == "/jobs":
            if method == "POST":
                return "submit", None
            if method == "GET":
                return "list", None
            return "method_not_allowed", None
        if path.startswith("/jobs/"):
            job_id, _, tail = path[len("/jobs/"):].partition("/")
            if tail == "" and method == "GET":
                return "job", job_id
            if tail == "events" and method == "GET":
                return "events", job_id
            if tail in ("", "events"):
                return "method_not_allowed", None
        return None, None

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self.queue is not None
        url = urlsplit(path)
        raw_path, query = url.path, parse_qs(url.query)
        norm = raw_path[len(API_PREFIX):]
        route, arg = None, None
        if raw_path.startswith(API_PREFIX + "/"):
            route, arg = self._match(method, norm)
        if body == b"__TOO_LARGE__":
            await self._error(writer, ErrorBody(
                "request body too large", "payload_too_large",
                {"max_bytes": MAX_BODY_BYTES},
            ))
            return
        if route is None:
            await self._error(writer, ErrorBody(
                f"no route for {method} {raw_path}", "not_found"))
            return
        if route == "method_not_allowed":
            await self._error(writer, ErrorBody(
                f"method {method} not allowed on {norm}",
                "method_not_allowed",
            ))
            return
        if route == "health":
            from .. import __version__

            await self._respond(writer, 200, {
                "status": "ok",
                "version": __version__,
                "api": API_PREFIX,
                "uptime_s": time.time() - (self.started_at or time.time()),
            })
            return
        if route == "stats":
            await self._respond(writer, 200, self._stats_envelope())
            return
        if route == "shutdown":
            await self._respond(writer, 200, {"status": "stopping"})
            self._stop.set()
            return
        if route == "submit":
            await self._submit(headers, body, writer)
            return
        if route == "list":
            await self._list_jobs(query, writer)
            return
        # job status / SSE stream
        try:
            job = self.queue.get(arg or "")
        except UnknownJobError as exc:
            await self._error(writer, ErrorBody(
                str(exc.message or exc), "unknown_job"))
            return
        if route == "events":
            await self._stream_events(job, writer)
            return
        await self._respond(writer, 200, JobStatus.from_job(job).as_dict())
        if job.terminal:
            job.collected = True

    def _executor_stats(self) -> Dict[str, Any]:
        stats = (
            self._backend.stats() if self._backend is not None
            else {"backend": "none"}
        )
        stats["in_flight"] = len(self._active)
        return stats

    def _stats_envelope(self) -> Dict[str, Any]:
        result = StatsResponse(
            uptime_s=time.time() - (self.started_at or time.time()),
            commands=list(SERVICE_COMMANDS),
            executor=self._executor_stats(),
            **self.queue.stats(),
        )
        return build_envelope(
            "stats",
            result.as_dict(),
            telemetry.telemetry_snapshot([]),
            active_cache_section(),
        )

    async def _submit(
        self,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._error(writer, ErrorBody(
                f"bad JSON body: {exc}", "bad_json"))
            return
        try:
            request = SubmitRequest.parse(payload, headers)
        except ProtocolError as exc:
            await self._error(writer, exc.body)
            return
        try:
            job = self.queue.submit(
                request.command, request.payload, request.tenant
            )
        except QuotaExceededError as exc:
            await self._error(writer, ErrorBody(
                str(exc.message or exc), "quota_exceeded",
                {"tenant": request.tenant},
            ))
            return
        except ReproError as exc:
            await self._error(writer, ErrorBody(
                exc.diagnostic(), "job_error"))
            return
        await self._respond(
            writer, 202, SubmitAccepted.from_job(job).as_dict()
        )

    async def _list_jobs(
        self,
        query: Dict[str, list],
        writer: asyncio.StreamWriter,
    ) -> None:
        tenant = (query.get("tenant") or [None])[0]
        try:
            limit = int((query.get("limit") or [50])[0])
            offset = int((query.get("offset") or [0])[0])
        except ValueError:
            await self._error(writer, ErrorBody(
                "limit and offset must be integers", "invalid_field",
                {"field": "limit/offset"},
            ))
            return
        if limit < 1 or limit > MAX_LIST_LIMIT or offset < 0:
            await self._error(writer, ErrorBody(
                f"limit must be in [1, {MAX_LIST_LIMIT}] and offset >= 0",
                "invalid_field",
                {"field": "limit/offset"},
            ))
            return
        total, page = self.queue.list_jobs(tenant, limit, offset)
        listing = JobListing(
            jobs=[JobStatus.from_job(job, include_envelope=False)
                  for job in page],
            total=total,
            limit=limit,
            offset=offset,
            tenant=tenant,
        )
        await self._respond(writer, 200, listing.as_dict())

    async def _stream_events(
        self, job: ServiceJob, writer: asyncio.StreamWriter
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()

        def frame(event: Dict[str, Any]) -> bytes:
            data = json.dumps(event["data"], default=str)
            return f"event: {event['event']}\ndata: {data}\n\n".encode("utf-8")

        if job.terminal:
            payload = job.describe()
            if job.envelope is not None:
                payload["envelope"] = job.envelope
            writer.write(frame({"event": "result", "data": payload}))
            await writer.drain()
            job.collected = True
            return
        subscriber = self.queue.subscribe(job)
        try:
            writer.write(frame({"event": "status", "data": job.describe()}))
            await writer.drain()
            while True:
                event = await subscriber.get()
                if event is None:
                    break
                writer.write(frame(event))
                await writer.drain()
                if event.get("event") == "result":
                    job.collected = True
                    break
        finally:
            self.queue.unsubscribe(job, subscriber)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    store_dir: Optional[str] = None,
    memory_entries: int = 128,
    workers: int = 1,
    default_quota: Optional[TenantQuota] = None,
    quotas: Optional[Dict[str, TenantQuota]] = None,
    trace_path: Optional[str] = None,
) -> Server:
    """Build a :class:`Server` with a store rooted at ``store_dir``.

    Does not start it — call :meth:`Server.run` (blocking),
    :meth:`Server.run_async`, or :meth:`Server.start_in_thread`.
    """
    store = ArtifactStore(root=store_dir, memory_entries=memory_entries)
    return Server(
        host=host,
        port=port,
        store=store,
        workers=workers,
        default_quota=default_quota,
        quotas=quotas,
        trace_path=trace_path,
    )


__all__ = ["MAX_BODY_BYTES", "MAX_LIST_LIMIT", "Server", "serve"]
