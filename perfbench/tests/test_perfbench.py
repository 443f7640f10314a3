"""The benchmark's own tests: quick runs, metric names and units, and gates.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.runtime import DetectionVerdict

from perfbench import bench, matrix, streaming
from perfbench.common import (
    Seeds,
    WarmStarts,
    mismatches,
    peak_rss_mib,
    reset_peak_rss,
    set_up,
    warm_start_trace,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = Seeds.from_seed(5)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--quick",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _table(section: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_metric_tables_match_benchmark_json():
    assert bench.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])
    assert bench.END_TO_END == _table("end_to_end")
    assert bench.PER_LAYER == _table("per_layer")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_quick_form_reports_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = _table("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in table.items()
    }
    if trace:  # every traced run ends with the training grid
        assert result["metrics"]["ml.fit_s.OneR"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("serve-short", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_mismatches_counts_differences_and_missing_results():
    assert mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert mismatches([1, 9, 3], [1, 2, 3]) == 1
    assert mismatches([1, 2], [1, 2, 3]) == 1


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    return set_up(4, tmp_path_factory.mktemp("registry"))


def _flipped(verdict: DetectionVerdict) -> DetectionVerdict:
    return DetectionVerdict.from_flags(
        verdict.app_name, 1 - np.asarray(verdict.window_flags), 0.5
    )


@pytest.mark.parametrize("kind", (streaming.ServeWorkload, streaming.FleetWorkload))
def test_verdict_gate_trips_on_a_perturbed_reference(deployment, kind):
    workload = kind(deployment, SEEDS, streaming.serve_jobs(SEEDS.jobs, 1, 10))
    assert workload.run_pass().failed == 0
    workload.reference = list(workload.reference)
    workload.reference[3] = _flipped(workload.reference[3])
    clean = workload.run_pass()
    assert clean.failed == 1 and clean.attempted == 18


def test_training_gate_trips_on_a_perturbed_reference():
    grid = matrix.TrainingGrid(SEEDS, 2, matrix.grid(("OneR",)))
    assert matrix.replay(grid).failed == 0
    grid.reference = list(grid.reference)
    grid.reference[1] = matrix.cell_digest("perturbed", 0.5, 0.5)
    assert matrix.replay(grid).failed == 1


def test_warm_starts_spread_their_target_over_the_run(deployment):
    starts = WarmStarts(deployment, warm_start_trace(SEEDS), target=4)
    starts.run_due(0.0)
    assert len(starts.load_s) == 1  # at least one start per call
    starts.run_due(0.5)
    starts.run_due(0.5)
    assert len(starts.load_s) == 2
    starts.run_due(1.0)
    assert len(starts.load_s) == len(starts.first_verdict_s) == 4
    assert starts.failed == 0


@pytest.mark.skipif(
    not Path("/proc/self/clear_refs").exists(), reason="no peak-RSS reset here"
)
def test_peak_rss_restarts_after_a_reset():
    block = np.ones(64 * 2**20 // 8)  # 64 MiB, resident once written
    block[::512] = 2.0
    before = peak_rss_mib()
    del block
    reset_peak_rss()
    assert peak_rss_mib() < before - 32
