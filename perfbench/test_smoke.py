"""Smoke test of the benchmark's output format.

Run from the root of a checkout:  python3 -m pytest perfbench

Each workload runs in smoke mode (a few seconds of work at the published
batch sizes) untraced and traced.  The test checks that the last line is
the result object, that every metric named in BENCHMARK.json appears with
its unit and a numeric value, and that no operation failed.  It makes no
assertion about how long anything takes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_names_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *notes, last = proc.stdout.strip().splitlines()
    assert all(line.startswith("# ") for line in notes)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert type(m["value"]) in (int, float) and math.isfinite(m["value"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "verify", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
