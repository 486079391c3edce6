"""The benchmark at its smallest size: every declared metric with its unit,
a digest that repeats across processes, and traced == untraced numerics.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_and_record(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record_path = BENCH_DIR / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_smallest_size(workload):
    untraced, untraced_record = result_and_record(workload, 0)
    again, again_record = result_and_record(workload, 0)
    traced, traced_record = result_and_record(workload, 1)

    for result, kind in ((untraced, "end_to_end"), (again, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    assert len(untraced_record["digests"]) == 1
    assert again_record["digests"] == untraced_record["digests"]
    assert traced_record["digests"] == untraced_record["digests"]


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH_DIR.name) / "run.py"), "--workload", "exact_channel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
