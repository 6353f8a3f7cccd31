"""Seconds-long self-test of the benchmark.

Runs every workload untraced and traced at tiny sizes, the reference
gate, and the missing-source case.  It asserts no timing: only that the
runs are correct and report exactly the metrics ``BENCHMARK.json`` names.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_traced_and_untraced(workload, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, problems, _notes, env = run.run_workload(
            workload, 5, 0, trace, run.TINY, tmp_path / f"trace{int(trace)}"
        )
        assert problems == []
        assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert env["seed"] == 5


def test_reference_gate_passes():
    assert gate.check() == []


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
