"""Smoke test of the end-to-end benchmark on the bundled c17.

Runs every workload's shape once plain and once traced (``--smoke``) and
checks the printed result against ``BENCHMARK.json``: metric names and
units, equal output digests for the plain and the traced pass, and
layer spans that account for all but 5 % of the traced pass.  Not part
of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, out: Path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}-seed0-trace{trace}.json").read_text())
    return result, record


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, tmp_path):
    plain, plain_record = _run(workload, 0, tmp_path)
    traced, traced_record = _run(workload, 1, tmp_path)

    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    assert plain_record["digest"] == traced_record["digest"]
    unattributed = traced["metrics"]["unattributed_s"]["value"]
    assert unattributed <= 0.05 * traced_record["traced_wall_s"]
    assert (tmp_path / f"{workload}-seed0.trace.json").exists()
    assert (tmp_path / f"{workload}-seed0.layers.json").exists()
