"""Smoke test of the benchmark: every workload once, every metric present.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about a minute: one pass of each workload, untraced and traced.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("env ") for line in lines)
    if trace:
        assert "layer self times sum to op span time: True" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "cli":
        failed = {line.split(":")[0] for line in lines if line.startswith("failed ")}
        assert all("cli malformed" in f for f in failed)


def test_every_per_layer_metric_has_an_expected_effect():
    moves = json.loads((HERE / "moves.json").read_text())["groups"]
    covered = {name for g in moves for name in g["per_layer"]}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names == covered
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for g in moves:
        assert set(g["moves"]) <= workloads and set(g["unchanged"]) <= workloads
        assert all(set(v) <= e2e for v in g["moves"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
