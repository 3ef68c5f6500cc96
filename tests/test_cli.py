"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.validation import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_choices(self):
        args = build_parser().parse_args(["table", "1"])
        assert args.which == "1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "busy-week"
        assert args.policy == "NoRes"

    def test_policy_flags_accept_free_form_specs(self):
        args = build_parser().parse_args(["run", "--policy", "dfrs:share=0.5"])
        assert args.policy == "dfrs:share=0.5"
        args = build_parser().parse_args(
            ["table", "2", "--policy", "NoRes", "--policy", "dfrs:share=0.5"]
        )
        assert args.policy == ["NoRes", "dfrs:share=0.5"]
        args = build_parser().parse_args(["table", "2"])
        assert args.policy is None
        args = build_parser().parse_args(
            ["run-grid", "--preset", "smoke", "--policy", "migration_cost"]
        )
        assert args.policy == ["migration_cost"]


class TestCommands:
    def test_run_smoke(self, capsys):
        code = main(["run", "--scenario", "smoke", "--policy", "ResSusUtil"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ResSusUtil" in out
        assert "SuspRate" in out

    def test_run_with_util_scheduler(self, capsys):
        code = main(
            ["run", "--scenario", "smoke", "--initial-scheduler", "utilization"]
        )
        assert code == 0

    def test_generate_and_analyze_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["generate-trace", str(out), "--scenario", "smoke"])
        assert code == 0
        assert out.exists()
        code = main(["analyze-trace", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "jobs:" in text
        assert "priority" in text

    def test_analyze_missing_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = main(["analyze-trace", str(missing)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_table_small_scale(self, capsys):
        code = main(["table", "1", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "NoRes" in out

    def test_table_all_is_one_grid(self, capsys, monkeypatch):
        import repro.fabric.coordinator as coordinator_mod

        real, simulated = coordinator_mod._simulate_task, []

        def sim(task):
            simulated.append(task.cell_id)
            return real(task)

        monkeypatch.setattr(coordinator_mod, "_simulate_task", sim)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        code = main(["table", "all", "--scale", "0.03", "--no-cache"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [line for line in lines if line.startswith("  [") and line.endswith(" simulated")]
        # Tables 4 and 5 share their NoRes cells with Tables 2 and 3.
        assert (len(cells), len(simulated)) == (17, 15)
        assert [line for line in lines if line.startswith(("Table", "High"))] == [
            experiment.title for experiment in EXPERIMENTS.values() if experiment.is_table
        ]

    def test_figure3_small_scale(self, capsys):
        code = main(["figure", "3", "--scale", "0.05"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out


class TestCliEvents:
    def test_run_with_event_log(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        code = main(["run", "--scenario", "smoke", "--events", str(path)])
        assert code == 0
        assert path.exists()
        first_line = path.read_text().splitlines()[0]
        assert '"event": "submit"' in first_line


class TestCliTelemetry:
    def test_run_telemetry_dir_and_stats(self, tmp_path, capsys):
        teldir = tmp_path / "telemetry"
        code = main(
            [
                "run", "--scenario", "smoke", "--policy", "ResSusUtil",
                "--telemetry-dir", str(teldir), "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pool.fill_machine" in out  # the layer table printed
        assert "engine.self" in out
        assert (teldir / "metrics.prom").exists()
        assert (teldir / "metrics.jsonl").exists()

        code = main(["stats", str(teldir)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "event counters" in rendered
        assert "per-pool gauges" in rendered
        assert "submit" in rendered
        assert "engine profile" in rendered
        assert "events.pop" in rendered

    def test_stats_missing_dir_fails_cleanly(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_table_progress_and_cells(self, tmp_path, capsys):
        teldir = tmp_path / "cells"
        code = main(
            [
                "table", "1", "--scale", "0.05",
                "--progress", "--telemetry-dir", str(teldir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cells" in captured.err  # heartbeat went to stderr
        assert (teldir / "cells.jsonl").exists()

        code = main(["stats", str(teldir)])
        assert code == 0
        assert "experiment cells" in capsys.readouterr().out

    def test_policies_list(self, capsys):
        code = main(["policies", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("NoRes", "ResSusUtil", "dfrs", "migration_cost"):
            assert name in out
        assert "selectors" in out
        assert "spec grammar" in out

    def test_run_with_registry_spec(self, capsys):
        code = main(
            ["run", "--scenario", "smoke", "--policy", "dfrs:share=0.5,floor=0.1"]
        )
        assert code == 0
        assert "DFRS[share=0.5,floor=0.1]" in capsys.readouterr().out

    def test_run_with_migration_cost_spec(self, capsys):
        code = main(
            [
                "run", "--scenario", "smoke",
                "--policy", "migration_cost:transfer_minutes=5",
            ]
        )
        assert code == 0
        assert "MigCost[" in capsys.readouterr().out

    def test_run_unknown_policy_fails_cleanly(self, capsys):
        code = main(["run", "--scenario", "smoke", "--policy", "nonsense"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nonsense" in err

    def test_table_policy_override_echoes_spec(self, capsys):
        code = main(
            [
                "table", "1", "--scale", "0.05",
                "--policy", "NoRes", "--policy", "dfrs:share=0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DFRS[share=0.5,floor=0.05]" in out
        assert "<dfrs:share=0.5>" in out  # per-cell spec echo
