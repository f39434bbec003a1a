"""Smoke test of the benchmark: a tiny cohort through the code path of a real run.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from survtower import train
from survtower.errors import TrainingDivergedError

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = bench.Workload(
    "tiny", "smoke test", patients=20, epochs=2,
    config=lambda **kw: train.desk_preset(
        in_plane=8, widths=(4, 8), embed_dim=12, heads=3, layers=1, mlp_hidden=16,
        head_hidden=8, batch_size=8, **kw,
    ),
)


def test_catalogue_matches_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    result, report = bench.measure(TINY, seed=0, seconds=0, trace=bool(trace), workdir=tmp_path)
    line = json.loads(json.dumps(result))

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, report["checks"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace:
        assert line["metrics"]["autodiff.conv3d.calls_per_step"]["value"] > 0
        assert (tmp_path / "traces" / "tiny.json").exists()
    else:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in listed)
    assert {"git_commit", "config_hash", "seed", "numpy", "blas_threads", "nproc"} <= set(report["provenance"])


def test_failed_training_is_counted(tmp_path, monkeypatch):
    def diverge(cfg, ds, progress=None):
        raise TrainingDivergedError("non-finite loss")

    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(train, "train", diverge)
    result, report = bench.measure(TINY, seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}
    assert "TrainingDivergedError" in report["checks"][-1]["detail"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
