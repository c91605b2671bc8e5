"""Self-test of the layer-budget benchmark harness.

    python3 -m pytest layerbench/test_layerbench.py

Each workload runs in a one-second smoke mode, traced and untraced; a
deliberately corrupted delivery must fail the run; every metric the
runner prints must be declared in ``BENCHMARK.json``; and without the
program's source the runner must fail fast without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "layerbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_corrupted_delivery_trips_the_correctness_gate():
    proc = bench("--workload", "sensor-recv", "--seed", "3", "--seconds", "1",
                 "--corrupt-delivery", "5")
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_runner_metric_tables_match_benchmark_json():
    assert SPEC["command"] == ["python3", "layerbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == table
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_program_source_the_runner_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sensor-recv", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
