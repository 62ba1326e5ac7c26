"""The experiment harness itself must not rot: structure checks on the
fast experiments in quick mode."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.runner import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    kernel_tier,
    run_experiment,
)


class TestRunner:
    def test_registry_is_complete(self):
        assert len(ALL_EXPERIMENTS) == 18

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("e99")

    def test_cli_checks_every_id_before_running_any(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["e1", "e99", "--quick"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "==" not in captured.out
        assert "e99" in captured.err and "e18" in captured.err

    @pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
    def test_every_experiment_runs_quick(self, experiment_id):
        result = run_experiment(experiment_id, quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.rows, "experiment produced no rows"
        for row in result.rows:
            assert len(row) == len(result.columns)
        assert result.kernels == kernel_tier()

    def test_render_contains_claim_and_rows(self):
        result = run_experiment("e4", quick=True)
        rendered = result.render()
        assert "claim:" in rendered
        assert result.title in rendered
        assert f"kernels: {kernel_tier()}" in rendered
        assert len(rendered.splitlines()) >= 5 + len(result.rows)


class TestResultFormatting:
    def test_add_row_and_note(self):
        result = ExperimentResult(
            experiment_id="eX",
            title="t",
            claim="c",
            columns=["a", "b"],
        )
        result.add_row(1, 2.5)
        result.add_note("hello")
        rendered = result.render()
        assert "hello" in rendered
        assert "2.5" in rendered

    def test_float_formatting(self):
        result = ExperimentResult("eX", "t", "c", ["v"])
        result.add_row(123456.789)
        result.add_row(0.000012)
        rendered = result.render()
        assert "1.23e+05" in rendered
        assert "1.2e-05" in rendered
