"""Tests for the campaign scheduler: resume, retry, crash quarantine.

The crash/resume determinism tests here are the engine's headline
guarantee: however a campaign is interrupted — a ``--max-jobs`` budget, a
graceful stop, or a worker killed mid-job — resuming against the same DB
must converge to job rows whose verdicts are bit-identical to a single
uninterrupted run, with no job duplicated or lost, and re-running a
finished campaign must execute nothing.
"""

from __future__ import annotations

import pytest

from repro.bench.data import data_path
from repro.campaign import (
    CampaignError,
    CampaignOptions,
    CampaignSpec,
    JobStore,
    campaign_status,
    expand_jobs,
    resolve_designs,
    resume_campaign,
    run_campaign,
)
from repro.campaign.scheduler import GracefulStop, _Run, CampaignSummary
from repro.campaign.spec import Job

C17 = data_path("c17.blif")

FAST = dict(timeout_s=60.0, backoff_s=0.01)


def fp_spec(n_copies=4, seed=0):
    return CampaignSpec(kind="fingerprint", designs=(C17,),
                        n_copies=n_copies, seed=seed)


def job_ids(spec):
    designs = {n: e.circuit for n, e in resolve_designs(spec).items()}
    return sorted(j.job_id for j in expand_jobs(spec, designs))


def verdicts(db_path):
    """``{job_id: (status, verdict)}`` for every row — the comparison key."""
    with JobStore(db_path) as store:
        return {row.job_id: (row.status, row.verdict)
                for row in store.all_jobs()}


class TestSerialCampaign:
    def test_runs_to_completion(self, tmp_path):
        db = str(tmp_path / "c.db")
        summary = run_campaign(fp_spec(), db, CampaignOptions(jobs=1, **FAST))
        assert summary.counts == {"done": 4}
        assert summary.executed == 4
        assert summary.complete and summary.clean
        assert not summary.interrupted
        assert summary.jobs_per_sec > 0

    def test_rerun_finished_campaign_executes_nothing(self, tmp_path):
        db = str(tmp_path / "c.db")
        spec = fp_spec()
        run_campaign(spec, db, CampaignOptions(jobs=1, **FAST))
        before = verdicts(db)
        again = run_campaign(spec, db, CampaignOptions(jobs=1, **FAST))
        assert again.executed == 0
        assert again.inserted == 0
        assert verdicts(db) == before

    def test_different_spec_same_db_rejected(self, tmp_path):
        db = str(tmp_path / "c.db")
        run_campaign(fp_spec(n_copies=2), db, CampaignOptions(jobs=1, **FAST))
        with pytest.raises(CampaignError, match="different spec"):
            run_campaign(fp_spec(n_copies=3), db)

    def test_needs_a_worker(self, tmp_path):
        with pytest.raises(CampaignError, match="worker"):
            run_campaign(fp_spec(), str(tmp_path / "c.db"),
                         CampaignOptions(jobs=0))

    def test_inject_kind(self, tmp_path):
        db = str(tmp_path / "i.db")
        spec = CampaignSpec(kind="inject", designs=(C17,), trials=1,
                            injectors=("StuckAtNet", "DanglingWire"))
        summary = run_campaign(spec, db, CampaignOptions(jobs=1, **FAST))
        assert summary.counts == {"done": 2}
        for _status, verdict in verdicts(db).values():
            assert verdict["acceptable"] is True

    def test_inject_text_kind(self, tmp_path):
        db = str(tmp_path / "t.db")
        spec = CampaignSpec(kind="inject-text", designs=(C17,), trials=1,
                            injectors=("TruncateText",))
        summary = run_campaign(spec, db, CampaignOptions(jobs=1, **FAST))
        assert summary.counts == {"done": 1}


class TestResumeDeterminism:
    """The acceptance-criteria invariant, proven three ways."""

    def test_max_jobs_interrupt_then_resume_is_bit_identical(self, tmp_path):
        spec = fp_spec()
        baseline_db = str(tmp_path / "baseline.db")
        run_campaign(spec, baseline_db, CampaignOptions(jobs=1, **FAST))
        baseline = verdicts(baseline_db)

        db = str(tmp_path / "interrupted.db")
        first = run_campaign(spec, db,
                             CampaignOptions(jobs=1, max_jobs=2, **FAST))
        assert first.interrupted
        assert first.executed == 2
        assert first.counts == {"done": 2, "pending": 2}

        second = resume_campaign(db, CampaignOptions(jobs=1, **FAST))
        assert second.executed == 2  # only the remainder
        assert second.complete

        # union of job rows identical: same ids, same verdicts, nothing
        # duplicated (job_id is the primary key) and nothing lost
        assert verdicts(db) == baseline
        assert sorted(verdicts(db)) == job_ids(spec)

    def test_worker_crash_then_resume_is_bit_identical(self, tmp_path,
                                                       monkeypatch):
        spec = fp_spec()
        baseline_db = str(tmp_path / "baseline.db")
        run_campaign(spec, baseline_db, CampaignOptions(jobs=1, **FAST))
        baseline = verdicts(baseline_db)

        victim = job_ids(spec)[0]
        # the worker executing the victim dies with os._exit on its first
        # attempt, then behaves — crash recovery must converge anyway
        monkeypatch.setenv("REPRO_WORKER_CRASH", f"{victim}:1")
        db = str(tmp_path / "crashed.db")
        summary = run_campaign(spec, db, CampaignOptions(jobs=2, **FAST))
        assert summary.crashes >= 1
        assert summary.complete and summary.clean
        assert verdicts(db) == baseline

    def test_stale_running_rows_swept_on_resume(self, tmp_path):
        """Rows a SIGKILLed scheduler left as `running` re-execute."""
        spec = fp_spec()
        db = str(tmp_path / "killed.db")
        run_campaign(spec, db, CampaignOptions(jobs=1, max_jobs=2, **FAST))
        with JobStore(db) as store:
            pending = [row.job_id for row in store.pending_jobs()]
            store.mark_running(pending)  # simulate a scheduler killed mid-job
        summary = resume_campaign(db, CampaignOptions(jobs=1, **FAST))
        assert summary.complete
        baseline_db = str(tmp_path / "baseline.db")
        run_campaign(spec, baseline_db, CampaignOptions(jobs=1, **FAST))
        assert verdicts(db) == verdicts(baseline_db)

    def test_serial_and_pooled_verdicts_identical(self, tmp_path):
        spec = fp_spec()
        serial_db = str(tmp_path / "serial.db")
        pooled_db = str(tmp_path / "pooled.db")
        run_campaign(spec, serial_db, CampaignOptions(jobs=1, **FAST))
        run_campaign(spec, pooled_db, CampaignOptions(jobs=2, **FAST))
        assert verdicts(serial_db) == verdicts(pooled_db)

    def test_resume_without_spec_fails(self, tmp_path):
        db = str(tmp_path / "empty.db")
        JobStore(db).close()
        with pytest.raises(CampaignError, match="no campaign spec"):
            resume_campaign(db)


class TestPooledTelemetry:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()
        yield
        telemetry.disable()
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()

    def test_worker_telemetry_round_trips_through_pool(self, tmp_path):
        """Job spans recorded inside pool workers graft under the
        parent's open ``campaign.run`` span, stamped with the worker pid,
        and worker counters merge into the parent registry."""
        import os

        from repro import telemetry

        db = str(tmp_path / "t.db")
        with telemetry.enabled(trace=True, metrics=True):
            summary = run_campaign(fp_spec(), db,
                                   CampaignOptions(jobs=2, **FAST))
        assert summary.complete and summary.clean
        roots = telemetry.get_tracer().drain()
        assert [root.name for root in roots] == ["campaign.run"]
        jobs = [child for child in roots[0].children
                if child.name == "campaign.job"]
        assert len(jobs) == summary.n_jobs == 4
        parent_pid = os.getpid()
        for job in jobs:
            assert job.attrs.get("worker") not in (None, parent_pid)
        counters = telemetry.get_registry().snapshot()["counters"]
        assert counters["campaign.job_done"] == summary.n_jobs


class TestCrashQuarantine:
    def test_always_crashing_job_quarantined_innocents_finish(
            self, tmp_path, monkeypatch):
        spec = fp_spec()
        victim = job_ids(spec)[0]
        monkeypatch.setenv("REPRO_WORKER_CRASH", victim)  # every time
        db = str(tmp_path / "c.db")
        summary = run_campaign(spec, db, CampaignOptions(jobs=2, **FAST))
        assert summary.quarantined == 1
        assert not summary.clean
        rows = verdicts(db)
        assert rows[victim][0] == "faulty"
        # culprit isolation: jobs that merely shared the pool all complete
        assert all(status == "done"
                   for job, (status, _v) in rows.items() if job != victim)

    def test_partial_wait_after_crash_quarantines_nobody(
            self, tmp_path, monkeypatch):
        """``wait`` can wake before the executor has marked every future
        broken.  Make it hand back all but one broken future: the one
        left in flight shared the pool with the others, so it is a
        suspect, not a culprit, and the campaign still finishes clean.

        The scenario is pinned so the crash always reaches ``wait`` with
        company: the first-submitted job hangs on its first attempt, and
        only the last-submitted job's worker dies.  By then the whole
        window is submitted (``submit`` cannot see the broken pool) and
        the hung job is still in flight (the crasher is never alone).
        The hung worker outlives the broken pool until the job's timeout
        (it ignores the pool's SIGTERM), so the timeout is 10 s: far
        beyond the crash, which comes within a few c17 jobs."""
        from concurrent.futures import ALL_COMPLETED
        from concurrent.futures.process import BrokenProcessPool

        from repro.campaign import scheduler

        real_wait = scheduler.wait
        withheld = []

        def partial_wait(futures, timeout=None, return_when=ALL_COMPLETED):
            done, pending = real_wait(futures, timeout, return_when)
            if withheld or not any(
                isinstance(f.exception(), BrokenProcessPool) for f in done
            ):
                return done, pending
            real_wait(futures, 30, ALL_COMPLETED)  # every future now broken
            done = set(futures)
            if len(done) < 2:
                return done, set()
            withheld.append(done.pop())
            return done, set(withheld)

        real_payload = scheduler._payload
        submitted = []

        def recorded_payload(row, attempt, options):
            submitted.append(row.job_id)
            return real_payload(row, attempt, options)

        monkeypatch.setattr(scheduler, "wait", partial_wait)
        monkeypatch.setattr(scheduler, "_payload", recorded_payload)
        spec = fp_spec()
        ids = job_ids(spec)  # pending jobs are submitted in job-id order
        monkeypatch.setenv("REPRO_CAMPAIGN_HANG_JOBS", f"{ids[0]}:1")
        monkeypatch.setenv("REPRO_WORKER_CRASH", f"{ids[-1]}:1")
        db = str(tmp_path / "c.db")
        summary = run_campaign(
            spec, db, CampaignOptions(jobs=2, timeout_s=10.0, backoff_s=0.01))
        assert submitted[:len(ids)] == ids
        assert withheld, "the crash never reached the wrapped wait"
        assert summary.quarantined == 0
        assert summary.complete and summary.clean

    def test_crash_ledger_recorded(self, tmp_path, monkeypatch):
        spec = fp_spec(n_copies=2)
        victim = job_ids(spec)[0]
        monkeypatch.setenv("REPRO_WORKER_CRASH", victim)
        db = str(tmp_path / "c.db")
        run_campaign(spec, db, CampaignOptions(jobs=2, **FAST))
        status = campaign_status(db)
        assert status["events"].get("crash", 0) >= 1
        assert status["events"].get("quarantine", 0) == 1


class TestTimeoutQuarantine:
    def test_hung_job_times_out_retries_then_quarantines(
            self, tmp_path, monkeypatch):
        spec = fp_spec()
        victim = job_ids(spec)[0]
        monkeypatch.setenv("REPRO_CAMPAIGN_HANG_JOBS", victim)  # every time
        db = str(tmp_path / "h.db")
        summary = run_campaign(
            spec, db, CampaignOptions(jobs=1, timeout_s=0.2, backoff_s=0.01))
        assert summary.timeouts == 2  # first attempt + one retry
        assert summary.quarantined == 1
        rows = verdicts(db)
        assert rows[victim][0] == "faulty"
        with JobStore(db) as store:
            row = store.job(victim)
            assert row.error_type == "JobTimeoutError"
            assert row.crashes == 2
        assert sum(1 for s, _v in rows.values() if s == "done") == 3

    def test_hang_once_recovers(self, tmp_path, monkeypatch):
        spec = fp_spec(n_copies=2)
        victim = job_ids(spec)[0]
        monkeypatch.setenv("REPRO_CAMPAIGN_HANG_JOBS", f"{victim}:1")
        db = str(tmp_path / "h.db")
        summary = run_campaign(
            spec, db, CampaignOptions(jobs=1, timeout_s=0.2, backoff_s=0.01))
        assert summary.timeouts == 1
        assert summary.complete and summary.clean


class TestRetryPolicy:
    """The error-disposition state machine, driven directly."""

    def _run(self, tmp_path, retry_attempts=1):
        store = JobStore(str(tmp_path / "r.db"))
        store.insert_jobs([Job(job_id="j0", design="d", kind="fingerprint",
                               params={"value": 0}, seed="(0,)")])
        options = CampaignOptions(retry_attempts=retry_attempts,
                                  backoff_s=0.0)
        summary = CampaignSummary(db_path=store.path, designs=["d"])
        return _Run(store, options, summary, GracefulStop()), store

    def error_result(self):
        return {"status": "error", "verdict": None, "error": "boom",
                "error_type": "ValueError", "seconds": 0.0, "pid": 1}

    def test_error_retries_until_budget_exhausted(self, tmp_path):
        run, store = self._run(tmp_path, retry_attempts=1)
        row = store.pending_jobs()[0]
        run.dispose(row, 1, self.error_result())  # attempt 1 -> retry
        assert store.job("j0").status == "pending"
        assert run.summary.retried == 1
        assert len(run.delayed) == 1
        run.dispose(row, 2, self.error_result())  # attempt 2 -> failed
        failed = store.job("j0")
        assert failed.status == "failed"
        assert failed.error_type == "ValueError"
        store.close()

    def test_done_records_verdict(self, tmp_path):
        run, store = self._run(tmp_path)
        row = store.pending_jobs()[0]
        run.dispose(row, 1, {"status": "done", "verdict": {"ok": 1},
                             "error": None, "error_type": None,
                             "seconds": 0.1, "pid": 7})
        done = store.job("j0")
        assert done.status == "done"
        assert done.verdict == {"ok": 1}
        store.close()

    def test_overwrite_failed_reruns_failures(self, tmp_path, monkeypatch):
        """--overwrite failed re-opens quarantined rows and they recover."""
        spec = fp_spec(n_copies=2)
        victim = job_ids(spec)[0]
        monkeypatch.setenv("REPRO_CAMPAIGN_HANG_JOBS", f"{victim}:2")
        db = str(tmp_path / "o.db")
        first = run_campaign(
            spec, db, CampaignOptions(jobs=1, timeout_s=0.2, backoff_s=0.01))
        assert first.counts.get("faulty") == 1
        monkeypatch.delenv("REPRO_CAMPAIGN_HANG_JOBS")
        second = run_campaign(
            spec, db, CampaignOptions(jobs=1, overwrite="failed", **FAST))
        assert second.executed == 1
        assert second.counts == {"done": 2}


class TestGracefulStop:
    def test_request_stops_serial_loop(self, tmp_path):
        spec = fp_spec()
        db = str(tmp_path / "g.db")
        options = CampaignOptions(jobs=1, **FAST)

        # request stop before the run starts: the loop must execute
        # nothing and leave every job pending
        stop = GracefulStop()
        stop.request()
        import repro.campaign.scheduler as sched

        original = sched.GracefulStop
        try:
            sched.GracefulStop = lambda: stop
            summary = run_campaign(spec, db, options)
        finally:
            sched.GracefulStop = original
        assert summary.executed == 0
        assert summary.interrupted
        assert summary.counts == {"pending": 4}
        # and the campaign is resumable afterwards
        done = resume_campaign(db, options)
        assert done.complete


class TestStatus:
    def test_snapshot(self, tmp_path):
        spec = fp_spec(n_copies=2)
        db = str(tmp_path / "s.db")
        run_campaign(spec, db, CampaignOptions(jobs=1, **FAST))
        status = campaign_status(db)
        assert status["complete"] is True
        assert status["n_jobs"] == 2
        assert status["counts"] == {"done": 2}
        assert "c17" in status["designs"]
