"""Schema test of the benchmark's output (not of its timings).

Run from the root of the repository:

    python3 -m pytest bench/test_schema.py -q

It runs every workload in smoke mode, untraced and traced, and checks
that each result line carries exactly the metrics and units that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(spec["paths"]) <= 16
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_the_declared_metrics(spec, trace, section):
    lines = run_smoke(trace)
    declared = {m["name"]: m["unit"] for m in spec[section]}
    per_workload = {}
    for line in lines:
        if line.startswith('{"workload"'):
            result = json.loads(line)
            per_workload[result.pop("workload")] = result
    assert set(per_workload) == {w["name"] for w in spec["workloads"]}
    for name, result in per_workload.items():
        assert set(result) == RESULT_KEYS, name
        assert result["correct"] is True, name
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
        metrics = result["metrics"]
        assert {m: e["unit"] for m, e in metrics.items()} == declared, name
        for metric, entry in metrics.items():
            value = entry["value"]
            assert isinstance(value, (int, float)) and not isinstance(value, bool)
            assert math.isfinite(value), (name, metric)
    final = json.loads(lines[-1])
    assert set(final) == RESULT_KEYS


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "suite-small",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
