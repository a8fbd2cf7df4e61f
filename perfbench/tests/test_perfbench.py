"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("fig8-sweep", "redteam-zoo", "sparse-refresh")


def bench(*args: str, cwd: Path = ROOT, script: Path = RUN):
    """Run the benchmark at tiny size; returns (process, digest, result)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("digest ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, digest, result


@pytest.fixture(scope="module")
def timed():
    """One untraced tiny run per workload at seed 1."""
    return {name: bench("--workload", name, "--seed", "1", "--trace", "0")
            for name in WORKLOADS}


def _declared(section: str):
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_with_checks_passing(timed, workload):
    proc, digest, result = timed[workload]
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert digest is not None and len(digest) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_match_benchmark_json(timed, workload):
    _, _, result = timed[workload]
    assert set(result["metrics"]) == _declared("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]


def test_traced_metrics_match_benchmark_json():
    proc, digest, result = bench("--workload", "redteam-zoo", "--seed", "1",
                                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    # All three passes (plain, spans, cProfile) simulated the same outcome.
    assert result["correct"] is True
    assert set(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["faults.self_s"]["value"] > 0
    assert result["metrics"]["experiments.pool_overhead_s"]["value"] == 0


def test_digest_repeats_across_runs_and_follows_the_seed(timed):
    _, first, _ = timed["sparse-refresh"]
    _, again, _ = bench("--workload", "sparse-refresh", "--seed", "1")
    _, other, _ = bench("--workload", "sparse-refresh", "--seed", "2")
    assert again == first
    assert other != first


def test_pool_and_inline_give_the_same_digest(timed):
    _, pooled, _ = timed["fig8-sweep"]             # the workload's 2 workers
    proc, inline, _ = bench("--workload", "fig8-sweep", "--seed", "1",
                            "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    assert inline == pooled


def test_fails_without_the_repository(tmp_path):
    """With only the benchmark's own files there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, _ = bench("--workload", "sparse-refresh", "--seed", "1",
                       cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_layer_of_groups_files_by_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.probes import layer_of
    finally:
        del sys.path[:2]
    src = "/x/src/repro"
    assert layer_of(f"{src}/controller/mc.py", "_best_candidate") \
        == "controller.scan"
    assert layer_of(f"{src}/controller/mc.py", "_do_act") \
        == "controller.issue"
    assert layer_of(f"{src}/controller/rfm.py", "on_activate") \
        == "controller.rfm"
    assert layer_of(f"{src}/core/shadow.py", "translate") == "mitigations"
    assert layer_of(f"{src}/rowhammer/model.py", "f") == "faults"
    assert layer_of(f"{src}/rowhammer/attacks.py", "f") == "workloads"
    assert layer_of(f"{src}/analysis/power.py", "f") == "other"
    assert layer_of("~", "<built-in method builtins.min>") == "other"
