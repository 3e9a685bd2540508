"""Unit tests for the shared worker-process contract (``repro.workers``).

The pooled behaviour of each caller is tested where its policy lives
(batch salvage, campaign quarantine, service requeue); these pin the
contract's own pieces in-process.
"""

from __future__ import annotations

import os

import pytest

from repro import telemetry, workers


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()


@pytest.mark.parametrize("raw, key, attempt, expected", [
    ("a,b", "b", 5, True),
    (" a , b ", "b", 0, True),
    ("a:2", "a", 1, True),
    ("a:2", "a", 2, False),
    ("a:1,a", "a", 3, True),
    ("ab", "a", 0, False),
    ("", "a", 0, False),
    ("a", None, 0, False),
])
def test_env_hook_matches(monkeypatch, raw, key, attempt, expected):
    monkeypatch.setenv("REPRO_TEST_HOOK", raw)
    assert workers.env_hook_matches("REPRO_TEST_HOOK", key, attempt) is expected


def test_crash_hook_is_inert_outside_pool_workers(monkeypatch):
    monkeypatch.setenv(workers.CRASH_ENV, "victim")
    workers.crash_hook("victim")  # this process is no pool worker: no exit


def test_hand_off_then_adopt_grafts_and_merges():
    with telemetry.enabled(trace=True, metrics=True):
        with telemetry.span("task"):
            telemetry.count("task.done")
        handoff = workers.hand_off("value")
        assert telemetry.get_tracer().finished == []  # drained
        with telemetry.span("parent"):
            assert workers.adopt(handoff) == "value"
    (parent,) = telemetry.get_tracer().drain()
    (child,) = parent.children
    assert child.name == "task"
    assert child.attrs["worker"] == os.getpid()
    assert telemetry.get_registry().snapshot()["counters"] == {"task.done": 1}


def test_rebuild_is_generation_guarded_and_stops_at_shutdown():
    pool = workers.WorkerPool(1)
    try:
        assert pool.rebuild(0) is True
        assert pool.rebuild(0) is False  # same break, second observer
        assert pool.generation == 1
    finally:
        pool.shutdown()
    assert pool.rebuild(1) is False  # a closed pool is never rebuilt
    assert pool.generation == 1
