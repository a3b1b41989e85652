"""Tests for the experiment registry, report formatting, and CLI."""

import pytest

from repro.bench import EXPERIMENTS, ExperimentReport, run_experiment
from repro.bench.ablations import ABLATIONS
from repro.bench.cli import main
from repro.bench.report import format_table


class TestFormatTable:
    def test_alignment(self):
        lines = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_float_formatting(self):
        lines = format_table(["x"], [[1.23456], [1234.5678]])
        assert "1.235" in lines[2]
        assert "1234.6" in lines[3]

    def test_empty_rows(self):
        lines = format_table(["a", "b"], [])
        assert len(lines) == 2  # header + rule only


class TestExperimentReport:
    def test_text_layout(self):
        rep = ExperimentReport("x1", "A Title")
        rep.add_line("hello")
        text = rep.text()
        assert text.startswith("== x1: A Title ==")
        assert "hello" in text

    def test_add_table(self):
        rep = ExperimentReport("x1", "t")
        rep.add_table(["a"], [[1]])
        assert len(rep.lines) == 3


class TestRegistry:
    def test_every_figure_has_an_experiment(self):
        expected = {
            "table2", "fig4", "fig7a", "fig7b", "fig8",
            "fig9a", "fig9b", "fig10", "fig11", "fig12",
        }
        assert expected == set(EXPERIMENTS)

    def test_ablations_registered(self):
        assert {
            "ablation-schedule", "ablation-alpha", "ablation-lru",
            "packing", "archsim",
        } == set(ABLATIONS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    @pytest.mark.parametrize("name", ["table2", "fig4", "ablation-schedule"])
    def test_quick_scale_runs(self, name):
        rep = run_experiment(name, "quick")
        assert rep.experiment_id == name
        assert rep.lines

    def test_quick_fig9b_runs(self):
        rep = run_experiment("fig9b", "quick")
        assert rep.data["series"]


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "ablation-lru" in out

    def test_list_describes_every_experiment(self, capsys):
        """Each --list line carries a one-line description."""
        assert main(["--list"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        registry = {**EXPERIMENTS, **ABLATIONS}
        assert len(lines) == len(registry)
        for line in lines:
            name, description = line.split(None, 1)
            assert name in registry
            assert description.strip()

    def test_list_survives_empty_docstrings(self):
        """A generator without a docstring gets a placeholder instead of
        an IndexError (''.splitlines()[0] was the old failure mode)."""
        from repro.bench.cli import describe_experiment

        def undocumented(scale="full"):
            pass

        def blank(scale="full"):
            """   """

        assert describe_experiment(undocumented) == "(no description)"
        assert describe_experiment(blank) == "(no description)"
        assert describe_experiment(lambda: None) == "(no description)"

    def test_single_experiment(self, capsys, tmp_path):
        assert main(["table2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table2.txt").exists()
        assert "Intel i9-10900K" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_json_carries_the_report_rows(self, capsys, tmp_path):
        """--json writes the printed report's tables as v2 rows."""
        import json

        from repro.runtime import BENCH_SCHEMA, rows_from_report

        assert main(["fig9a", "--scale", "quick", "--json", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "BENCH_fig9a.json").read_text())
        assert payload["schema"] == BENCH_SCHEMA == "cake-bench/v2"
        assert set(payload) == {
            "schema", "experiment", "scale", "wall_seconds", "rows",
        }
        assert (payload["experiment"], payload["scale"]) == ("fig9a", "quick")
        expected = rows_from_report(run_experiment("fig9a", "quick"))
        assert payload["rows"] == json.loads(json.dumps(expected))
