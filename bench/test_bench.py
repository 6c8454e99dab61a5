"""Self-test of the benchmark at small sizes; not part of the tier-1 suite.

    PYTHONPATH=src python3 -m pytest bench -q
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--small")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    out = _run("--workload", "theta-single", "--seed", "5", "--seconds", "1", "--trace", "1", "--small")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_are_consistent(workload, tmp_path):
    res = worker.run(workload, seed=5, seconds=0.01, trace=True, work=tmp_path, small=True)
    assert res["failed"] == 0, res["problems"]
    assert set(res["layers"]) == set(run.LAYER_UNITS)
    # self times partition the CLI calls, so they never exceed the wall time
    assert all(s <= w for s, w in zip(res["self_sum_s"], res["traced_wall_s"]))
    layers = res["layers"]
    if workload in ("fig1-boxplot", "audit"):
        assert layers["bounds.evals"] == 0
    if workload == "theta-single":
        assert layers["alignment.theta.calls"] == 2
        assert layers["alignment.theta.eigensolves"] == 2 * 30
    else:
        assert layers["alignment.theta.calls"] == 0


def test_digest_does_not_depend_on_worker_count(tmp_path):
    one = worker.run("mc-bounds", seed=9, seconds=0.01, trace=False, work=tmp_path / "w1", small=True)
    two = worker.run("mc-bounds", seed=9, seconds=0.01, trace=False, work=tmp_path / "w2", small=True,
                     workers=2)
    assert one["failed"] == 0 and two["failed"] == 0
    assert one["digest"] == two["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "mc-bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
