"""The ``python -m repro engine``/``obs`` subcommands, end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import kernel_tier

SRC = Path(__file__).resolve().parents[2] / "src"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


class TestEngineList:
    def test_lists_every_spec(self):
        completed = run_cli("engine", "list")
        assert completed.returncode == 0, completed.stderr[-2000:]
        for spec in ("alias", "range.chunked", "setunion", "fair_nn", "em.setpool"):
            assert spec in completed.stdout


class TestEngineRun:
    def test_runs_batched_demo_queries(self):
        completed = run_cli(
            "engine", "run", "range.chunked", "--requests", "5", "--s", "3"
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "range.chunked" in completed.stdout
        assert "5" in completed.stdout

    def test_thread_backend(self):
        completed = run_cli(
            "engine", "run", "alias", "--requests", "3", "--backend", "thread"
        )
        assert completed.returncode == 0, completed.stderr[-2000:]

    def test_process_backend(self):
        completed = run_cli(
            "engine", "run", "range.chunked",
            "--requests", "4", "--backend", "process", "--workers", "2",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "backend:  process" in completed.stdout

    def test_shard_backend_reports_shard_count(self):
        completed = run_cli(
            "engine", "run", "range.chunked",
            "--requests", "4", "--placement", "sharded", "--backend", "thread",
            "--shards", "4",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "placement=sharded, execution=thread" in completed.stdout
        assert "shards: 4" in completed.stdout

    def test_shard_backend_rejects_non_range_spec(self):
        completed = run_cli(
            "engine", "run", "alias", "--requests", "2",
            "--placement", "sharded", "--backend", "thread",
        )
        assert completed.returncode == 2
        assert "key-space sharding" in completed.stderr

    def test_unknown_spec_fails_with_hint(self):
        completed = run_cli("engine", "run", "range.chunkd")
        assert completed.returncode != 0
        combined = completed.stdout + completed.stderr
        assert "range.chunked" in combined

    def test_repeat_and_warmup_report_timings(self):
        completed = run_cli(
            "engine", "run", "range.treewalk",
            "--requests", "4", "--repeat", "3", "--warmup", "2",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "timing:   warmup=2 repeat=3" in completed.stdout
        assert "wall per batch" in completed.stdout

    @pytest.mark.parametrize(
        "flag, value", [("--repeat", "0"), ("--n", "0"), ("--requests", "0")]
    )
    def test_out_of_range_value_rejected(self, flag, value):
        completed = run_cli("engine", "run", "alias", flag, value)
        assert completed.returncode == 2
        assert f"error: {flag} must be >= 1" in completed.stderr

    def test_run_reports_kernel_tier(self):
        completed = run_cli("engine", "run", "alias")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert f"kernels:  {kernel_tier()}" in completed.stdout

    def test_shm_flag_on_process_backend(self):
        completed = run_cli(
            "engine", "run", "range.treewalk",
            "--requests", "4", "--n", "512",
            "--backend", "process", "--workers", "2", "--shm",
            "--warmup", "1", "--repeat", "2",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "shm: on" in completed.stdout

    def test_shm_requires_process_backend(self):
        completed = run_cli("engine", "run", "range.treewalk", "--shm")
        assert completed.returncode == 2
        assert "--backend process" in completed.stderr

    def test_explain_prints_plan_without_draws(self):
        completed = run_cli("engine", "run", "range.treewalk", "--explain")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "kind=treewalk" in completed.stdout
        assert "canonical span(s)" in completed.stdout
        assert "built cold" in completed.stdout
        assert "none executed" in completed.stdout
        assert "values=" not in completed.stdout

    def test_explain_sharded_prints_budget_split(self):
        completed = run_cli(
            "engine", "run", "range.chunked",
            "--placement", "sharded", "--shards", "4", "--s", "16",
            "--explain",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "kind=sharded" in completed.stdout
        assert "expected quota=" in completed.stdout
        assert "active shard(s)" in completed.stdout

    def test_explain_rejects_unplanful_spec(self):
        completed = run_cli("engine", "run", "setunion", "--explain")
        assert completed.returncode == 2
        assert "plan" in completed.stderr


class TestObsCli:
    def test_dump_table_reports_engine_and_quantiles(self):
        completed = run_cli("obs")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "engine.requests" in completed.stdout
        assert "engine.harvested_chunks" in completed.stdout
        assert "p99=" in completed.stdout

    def test_prometheus_has_help_and_quantile_gauges(self):
        completed = run_cli("obs", "--format", "prometheus")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "# HELP repro_alias_draws_total" in completed.stdout
        assert "# TYPE repro_engine_request_us histogram" in completed.stdout
        assert "repro_engine_request_us_p99" in completed.stdout

    def test_tail_lists_serial_and_process_records(self):
        completed = run_cli("obs", "tail", "-n", "64")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "flight-recorder records" in completed.stdout
        assert "serial" in completed.stdout
        assert "process" in completed.stdout

    def test_tail_json_records_are_structured(self):
        completed = run_cli("obs", "tail", "--format", "json", "-n", "5")
        assert completed.returncode == 0, completed.stderr[-2000:]
        records = json.loads(completed.stdout)
        assert 0 < len(records) <= 5
        for record in records:
            assert set(record) >= {"trace", "backend", "worker", "op", "us"}
            assert len(record["trace"]) == 16

    def test_tail_rejects_prometheus_format(self):
        completed = run_cli("obs", "tail", "--format", "prometheus")
        assert completed.returncode == 2
        assert "table or json" in completed.stderr
