"""Smoke test of the benchmark at tiny sizes (n = 8, 25 simulated seconds).

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TABLE_NAMES = {
    "mesh_churn": ("setup_s", "sim_speed", "peak_rss_mb", "failed_ratio"),
    "geo_mobility": ("setup_s", "sim_speed", "peak_rss_mb", "failed_ratio"),
    "proof_stream": ("setup_s", "proofs_per_s", "proof_ms_p50", "proof_ms_p95",
                     "peak_rss_mb", "failed_ratio"),
}


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    info = json.loads(lines[-2])
    assert info["failed_ratio"] == 0
    assert info["nproc"] >= 1 and info["python"]
    if trace:
        assert 0.97 <= info["layer_coverage"] <= 1.0
        assert result["metrics"]["trace.overhead"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        table = "\n".join(lines[:-2])
        for name in TABLE_NAMES[workload]:
            assert f"  {name} " in table


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(layers) == sorted(names)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS
            assert set(metrics) <= end_to_end


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = bench("proof_stream", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
