"""Smoke test of the benchmark harness: every workload at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the result schema against BENCHMARK.json, that every count metric
repeats exactly across two traced runs of one seed, and that the benchmark
refuses to report when the package is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            f"--workload={workload}",
            "--seed=5",
            "--seconds=0.5",
            f"--trace={trace}",
            "--size=smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_schema(res: dict, wanted: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_workload_names_match_benchmark_json():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_result(workload):
    res = _result(workload, 0)
    _check_schema(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_across_runs(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    _check_schema(first, SPEC["per_layer"])
    _check_schema(second, SPEC["per_layer"])
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["interp.effective_dim.calls"]["value"] >= 1
    spans = HERE / "out" / f"spans-{workload}-seed5.jsonl"
    span = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert {"name", "start", "end", "parent", "workload", "rep"} <= set(span)


def test_refuses_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench("counterexample", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
