"""Tests for the multi-process execution backend (``service/executor.py``).

Covers the backend's robustness paths: concurrent multi-worker execution
with per-worker liveness, the worker-crash → requeue → structured-failure
salvage chain (driven by the ``REPRO_WORKER_CRASH`` fault hook),
round-robin tenant fairness in the queue, generation-guarded pool
rebuilds, and the process-global state a stopped server restores.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import telemetry
from repro.service import (
    JobExecutor,
    Server,
    ServiceClient,
    ServiceHttpError,
)
from repro.service.queue import JobQueue
from repro.store import ArtifactStore, active_store, store_activated

CRASH_TOKEN = "__service_crash_me__"


def blif(name: str) -> str:
    """A small unique-by-name BLIF design (fig1 with an extra output)."""
    return f"""\
.model {name}
.inputs a b c d
.outputs f
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
11 1
.end
"""


@pytest.fixture()
def server(monkeypatch):
    """A fresh two-worker server with the crash fault hook armed.

    Function-scoped (unlike the shared module server of the endpoint
    tests): crash tests mutate pool state, and each test deserves a
    pristine generation counter.
    """
    monkeypatch.setenv("REPRO_WORKER_CRASH", CRASH_TOKEN)
    srv = Server(port=0, workers=2)
    srv.start_in_thread()
    yield srv
    srv.stop_thread()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()


@pytest.fixture()
def client(server):
    return ServiceClient(port=server.port)


class TestMultiWorkerExecution:
    def test_concurrent_jobs_all_complete(self, client):
        accepted = client.submit_many([
            ("locate", {"design": blif(f"mw_{i}"), "format": "blif",
                        "tenant": f"tenant-{i % 3}"})
            for i in range(6)
        ])
        for body in accepted:
            envelope = client.wait(body["job_id"])
            assert envelope["ok"] is True
            assert envelope["result"]["n_locations"] >= 1

    def test_stats_reports_worker_liveness(self, client):
        for i in range(4):
            client.run("prepare", design=blif(f"live_{i}"))
        executor = client.stats()["result"]["executor"]
        assert executor["backend"] == "process"
        assert executor["workers"] == 2
        assert executor["jobs_done"] == 4
        seen = executor["worker_processes"]
        assert 1 <= len(seen) <= 2
        assert sum(worker["jobs"] for worker in seen) == 4
        for worker in seen:
            assert worker["alive"] is True
            assert worker["pid"] > 0
            assert worker["last_seen"] is not None

    def test_workers_share_the_disk_tier(self, client):
        """A design made warm by one worker is warm service-wide: with a
        memory-only parent store the server provisions a shared scratch
        disk root, so resubmissions hit the store's disk-persistable
        kinds (cnf, catalog) no matter which of the two workers draws
        them.  (ir and live CEC sessions are memory-tier-only and stay
        per-process by design.)"""
        text = blif("shared_tier")
        client.run("prepare", design=text)
        for _ in range(3):
            envelope = client.run("prepare", design=text)
            assert envelope["cache"]["warm"]["cnf"] is True
            assert envelope["cache"]["warm"]["catalog"] is True


class TestCrashSalvage:
    def test_crash_requeue_then_structured_failure(self, client):
        submitted = client.submit("locate", design=CRASH_TOKEN, format="blif")
        with pytest.raises(ServiceHttpError) as excinfo:
            client.wait(submitted["job_id"], timeout=120)
        assert excinfo.value.status == 500
        status = client.job(submitted["job_id"])
        assert status["status"] == "failed"
        assert status["error_code"] == "worker_crashed"
        assert status["attempts"] == 1  # dispatched, crashed, requeued once
        assert "crashed" in status["error"]

    def test_service_survives_crash_and_serves_again(self, client):
        submitted = client.submit("locate", design=CRASH_TOKEN, format="blif")
        with pytest.raises(ServiceHttpError):
            client.wait(submitted["job_id"], timeout=120)
        envelope = client.run("locate", design=blif("after_crash"),
                              format="blif")
        assert envelope["ok"] is True
        result = client.stats()["result"]
        assert result["executor"]["crashes"] == 2  # first run + the requeue
        assert result["executor"]["generation"] == 2
        assert result["jobs"]["requeued"] == 1
        assert result["jobs"]["failed"] == 1
        assert result["jobs"]["done"] == 1


class TestTenantFairness:
    def test_round_robin_across_tenant_buckets(self):
        """A bulk tenant's backlog cannot starve a light tenant: the
        dispatch order interleaves tenants round-robin even though the
        bulk tenant submitted everything first."""

        async def scenario():
            queue = JobQueue()
            for i in range(3):
                queue.submit("prepare", {"design": f"bulk{i}"}, "bulk")
            queue.submit("prepare", {"design": "light0"}, "light")
            order = []
            for _ in range(4):
                job = await queue.next_job()
                order.append((job.tenant, job.payload["design"]))
            return order

        order = asyncio.run(scenario())
        assert order == [
            ("bulk", "bulk0"),
            ("light", "light0"),  # ahead of bulk1/bulk2 despite arriving last
            ("bulk", "bulk1"),
            ("bulk", "bulk2"),
        ]

    def test_fifo_within_a_tenant(self):
        async def scenario():
            queue = JobQueue()
            for i in range(4):
                queue.submit("prepare", {"design": f"d{i}"}, "solo")
            return [
                (await queue.next_job()).payload["design"] for _ in range(4)
            ]

        assert asyncio.run(scenario()) == ["d0", "d1", "d2", "d3"]

    def test_requeue_rejoins_the_rotation(self):
        async def scenario():
            queue = JobQueue()
            job = queue.submit("prepare", {"design": "x"}, "t")
            first = await queue.next_job()
            queue.requeue(first)
            again = await queue.next_job()
            return job, first, again

        job, first, again = asyncio.run(scenario())
        assert again is first is job
        assert again.attempts == 1
        assert again.status == "queued"


class TestServerLifecycle:
    def test_stop_restores_telemetry_flags_and_active_store(self):
        """A stopped server leaves no process-global state behind: later
        in-process API calls must not record metrics or use its store."""

        def snapshot():
            return (telemetry.tracing_enabled(), telemetry.metrics_enabled(),
                    active_store())

        before = snapshot()
        Server(port=0).start_in_thread().stop_thread()
        assert snapshot() == before
        # A store the embedder activated survives a server with its own.
        with store_activated(ArtifactStore()):
            before = snapshot()
            Server(port=0, store=ArtifactStore()).start_in_thread().stop_thread()
            assert snapshot() == before


class TestExecutorUnit:
    def test_rebuild_is_generation_guarded(self):
        executor = JobExecutor(workers=1).start()
        try:
            assert executor.rebuild(0) is True
            # A second casualty of the same break reports the same
            # generation: no double rebuild.
            assert executor.rebuild(0) is False
            assert executor.generation == 1
            assert executor.crashes == 1
        finally:
            executor.shutdown()

    def test_submit_requires_start(self):
        executor = JobExecutor(workers=1)
        with pytest.raises(RuntimeError):
            executor.submit("prepare", {"design": "x"})

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            JobExecutor(workers=0)
