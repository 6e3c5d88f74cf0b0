"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import condinv.classify  # noqa: E402
import condinv.harness  # noqa: E402

WORKLOADS = ("grid-bench", "fit-large", "score-batch")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "7", "--seconds", "0.5",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert f"\n{name} " in "\n" + proc.stdout, f"{name} is not printed by name"


def _flip_first(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        out[0] = out[0] % 3 + 1  # labels are 1..3
        return out
    return corrupted


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_prediction_shows_in_error_rate(workload, monkeypatch):
    for module in (condinv.classify, condinv.harness):
        monkeypatch.setattr(module, "knn_predict", _flip_first(module.knn_predict))
    result = run.run(workload, 7, 0.1, False, "tiny")
    assert result["failed"] > 0
    assert result["error_rate"] > 0


def test_nondefault_seed_compares_a_single_pass_with_a_check_pass(monkeypatch):
    calls = {"n": 0}
    original = condinv.classify.knn_predict

    def corrupt_first_call(*args, **kwargs):
        calls["n"] += 1
        out = original(*args, **kwargs)
        if calls["n"] == 1:
            out = np.where(out == 1, 2, 1)
        return out

    monkeypatch.setattr(condinv.classify, "knn_predict", corrupt_first_call)
    result = run.run("fit-large", 3, 0.0, False, "tiny")
    assert result["passes"] == 1
    assert result["failed"] == 1


def test_missing_boundary_is_reported_not_zero(monkeypatch):
    import condinv.cli

    monkeypatch.delattr(condinv.cli, "main")
    result = run.run("fit-large", 7, 0.0, True, "tiny")
    assert "condinv.cli.main" in result["missing_boundaries"]
    assert "cli.self_s" not in result["per_layer"]
    assert "classify.knn_calls" in result["per_layer"]
    assert "MISSING BOUNDARY" in run.report(result)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "fit-large", "--seed", "7", "--seconds", "1",
                    "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
