"""Smoke-size runs of every paperbench workload through its one command.

Each test runs ``paperbench/run.py --size smoke`` in a subprocess and
checks the contract of its last output line: the metric names and units
declared in ``BENCHMARK.json``, a correct result with no failed checks,
and, for traced runs, the layer self times and tracing ratios.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "paperbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0.01",
            "--trace", str(trace), "--size", "smoke", "--out-dir", str(tmp_path),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_end_to_end_metrics(tmp_path, workload):
    result, stdout = _run(tmp_path, workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert "failed_frac" in stdout and "host probe" in stdout
    record = json.loads(next(tmp_path.glob("*/result.json")).read_text())
    assert all(rep["threads"]["OPENBLAS_NUM_THREADS"] == "1" for rep in record["reps"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_per_layer_metrics(tmp_path, workload):
    result, _ = _run(tmp_path, workload, trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert values["trace.reconcile_ratio"] > 0
    spans = list(tmp_path.glob("*/spans-*.jsonl"))
    assert spans and all(s.read_text() for s in spans)
    busy = {
        "ec1-threshold": "self_s.core.density",
        "tn-chain": "self_s.core.lpdo",
        "campaign-overlap": "self_s.exec",
    }[workload]
    assert values[busy] > 0
    if workload == "campaign-overlap":
        assert values["exec.cache_hits"] > 0 and values["obs.ledger_records"] > 0
    else:
        assert values["exec.points"] == 0 and values["self_s.exec"] == 0


def test_missing_program_fails_without_result(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    (tmp_path / "paperbench").mkdir()
    for name in ("run.py", "rep.py", "workloads.py", "layers.py"):
        (tmp_path / "paperbench" / name).write_text(
            (ROOT / "paperbench" / name).read_text()
        )
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
