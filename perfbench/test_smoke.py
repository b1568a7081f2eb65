"""Smoke test of the benchmark: each workload once at a tiny size, traced.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: _result(_run(w, 1)) for w in WORKLOADS}


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
    for metrics, moves, on, unchanged in layers.MODULE_MAP:
        assert set(metrics) <= set(layers.PER_LAYER)
        assert set(on) | set(unchanged) <= set(WORKLOADS)
        assert set(moves) <= {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, traced):
    res = traced[workload]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modules_are_called_on_their_workloads(workload, traced):
    values = {name: m["value"] for name, m in traced[workload]["metrics"].items()}
    missing = [m for m, where in layers.NONZERO.items() if workload in where and not values[m] > 0]
    assert not missing


def test_untraced_run_reports_end_to_end_metrics():
    res = _result(_run("draws", 0))
    assert res["correct"] and res["failed"] == 0
    units = {n: m["unit"] for n, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == layers.END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "draws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children_and_recursion_counts_once():
    spans = tracer.Tracer()

    def leaf():
        return sum(range(2000))

    def outer(depth):
        leaf_w()
        return outer_w(depth - 1) if depth else 0

    leaf_w = spans.wrap("m.leaf", leaf)
    outer_w = spans.wrap("m.outer", outer)
    outer_w(2)
    s = spans.summary()
    calls, incl, own = s["by_name"]["m.outer"]
    _, leaf_incl, leaf_own = s["by_name"]["m.leaf"]
    assert s["spans"] == 6 and calls == 3 and s["by_name"]["m.leaf"][0] == 3
    assert leaf_incl == pytest.approx(leaf_own)
    # the outermost outer span covers everything, once
    assert incl == pytest.approx(own + leaf_own)
