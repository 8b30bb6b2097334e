"""Tiny-size runs of every workload, untraced and traced, so a broken
workload fails fast.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_json_names_the_workloads():
    assert set(WORKLOADS) == set(run.SIZES["full"]) == set(run.SIZES["tiny"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_outputs_and_reports_end_to_end(workload):
    summary, metrics = run.run_benchmark(workload, seed=3, seconds=0.0, trace=False, scale="tiny")
    assert summary == {"correct": True, "attempted": run.MIN_COMMANDS[workload], "failed": 0}
    for name in run.END_TO_END:
        assert metrics[name] > 0
    assert metrics["failed_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    summary, metrics = run.run_benchmark(workload, seed=3, seconds=0.0, trace=True, scale="tiny")
    assert summary["correct"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    sweeps = metrics["autodiff.backward_sweeps_per_step"]
    if workload == "train_lorenz":
        assert sweeps == 2.0
        assert metrics["objective.step_ms_p90"] >= metrics["objective.step_ms_p50"] > 0
    else:
        assert sweeps == 0.0 and metrics["autodiff.tape_records_per_step"] == 0.0
        assert metrics["inference.generate_ms"] > 0
    layer_sum = sum(metrics[f"{layer}.self_ms"] for layer in run.LAYERS)
    assert layer_sum + metrics["trace.remainder_ms"] == pytest.approx(metrics["trace.wall_ms"])


def test_a_failing_check_is_counted(monkeypatch):
    calls = []
    real = run.CHECKS["forecast_export"]

    def second_fails(*args):
        calls.append(1)
        if len(calls) == 2:
            raise run.CheckFailed("rejected")
        return real(*args)

    monkeypatch.setitem(run.CHECKS, "forecast_export", second_fails)
    summary, metrics = run.run_benchmark("forecast_export", seed=3, seconds=0.0, trace=False,
                                         scale="tiny")
    assert summary == {"correct": False, "attempted": 2, "failed": 1}
    assert metrics["failed_frac"] == 0.5


def test_value_checks_apply_at_full_size_range_at_any_seed_reference_at_its_seed():
    def check(value, seed, scale="full"):
        run.check_values("evaluate_lorenz", {"w_distance": value}, scale, seed)

    expected, tol = run.REFERENCE["evaluate_lorenz"]["w_distance"]
    low, high = run.ACCEPTED["evaluate_lorenz"]["w_distance"]
    assert low < expected - 2 * tol and expected + 2 * tol < high
    check(expected + tol / 2, run.REFERENCE_SEED)
    check(expected + 2 * tol, run.REFERENCE_SEED + 1)
    check(2 * high, run.REFERENCE_SEED, scale="tiny")
    for value, seed in ((expected + 2 * tol, run.REFERENCE_SEED), (high + tol, 7), (low - tol, 7)):
        with pytest.raises(run.CheckFailed):
            check(value, seed)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no vdm sources" in proc.stderr
    assert "correct" not in proc.stdout
