"""Smoke test of the layered benchmark: ``pytest benchmarks/layers -q``.

Runs every workload with ``--quick`` (tiny n, one round), untraced and
traced, and checks the output contract.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(out: Path, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1", "--out", str(out)]
    if trace:
        command.append("--trace")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=120)
    assert child.returncode == 0, child.stdout
    return json.loads(child.stdout.strip().splitlines()[-1])


def records(out: Path, trace: bool) -> dict:
    suffix = "-trace" if trace else ""
    return {
        name: json.loads((out / f"result-{name}-seed1{suffix}.json").read_text())
        for name in WORKLOADS
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_quick_run_meets_contract(tmp_path, trace):
    result = run_quick(tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["workloads"]) == WORKLOADS
    for metrics in result["workloads"].values():
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: metric["unit"] for name, metric in metrics.items()
        }
    for record in records(tmp_path, trace).values():
        assert record["metrics"]["error_rate"]["value"] == 0
        assert record["probe"]["ok"]
        if trace:
            # Layer self times plus the residual add up to engine.run.
            assert record["trace_sum_error"] <= 0.01
            assert (tmp_path / f"trace-{record['workload']}.json").exists()
