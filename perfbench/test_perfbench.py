"""Smoke tests of the benchmark: one pass per workload, untraced and traced.

    python3 -m pytest perfbench/test_perfbench.py

Every run makes one pass over a workload's experiments, so the file takes
a few minutes.  The untraced runs use seed 0 and the traced runs seed 1, so
every correctness check is exercised at two seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, LAYER_METRICS, LAYERS, WORKLOADS  # noqa: E402

ROOT = HERE.parent

#: Per-layer metrics that must be nonzero on a workload, one per layer that
#: the workload's experiments run.
RUNS_LAYER = {
    "degeneracy": ("score.dense_bhat_builds", "spectral.eig_calls",
                   "spectral.fisher_calls", "spectral.ladder_s", "elliptic.solves",
                   "fixtures.psi_s", "io.files", "cli.runs"),
    "transport_geometry": ("grids.interp_calls", "transport.traces",
                           "transport.solve_s", "transport.kernel_s",
                           "transport.line_integral_s", "cli.runs"),
    "regression_mc": ("grids.interp_points", "simulate.replicates", "simulate.samples",
                      "simulate.lan_self_s", "simulate.risk_self_s",
                      "simulate.identity_s", "spectral.eig_calls", "cli.runs"),
    "forward": ("elliptic.operator_builds", "elliptic.cg_iterations",
                "elliptic.unknowns_max", "score.applies", "io.bytes", "cli.runs"),
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def one_pass(workload: str, trace: int, seed: int):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return lines[:-1], result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_reports_end_to_end_metrics(workload):
    report, metrics = one_pass(workload, trace=0, seed=0)
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    for name, metric in metrics.items():
        assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in report), name
    assert any("fail_ratio   0/" in line for line in report)
    # the raw times and reference-kernel times behind the adjusted ones
    assert sum("(raw " in line for line in report) == 3
    assert any(line.split()[:2] == ["speed", "scale"] for line in report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_layer_metrics(workload):
    _, metrics = one_pass(workload, trace=1, seed=1)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()}
    values = {name: m["value"] for name, m in metrics.items()}
    for name in RUNS_LAYER[workload]:
        assert values[name] > 0, name
    self_times = sum(values[f"{layer}.self_s"] for layer in (*LAYERS, "bench"))
    assert self_times == pytest.approx(values["trace.pass_s"], rel=1e-9)
    assert values["trace.overhead_s"] == pytest.approx(
        values["trace.pass_s"] - values["trace.untraced_pass_s"])


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "forward", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
