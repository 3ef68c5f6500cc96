"""Tests for repro.experiments (tables, figures, ablations, runner, presets).

All experiment functions run here at tiny scale so the suite stays fast;
the benchmarks run them at the calibrated scale.
"""

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import ablations, figures, presets, tables
from repro.experiments.runner import ExperimentRunner
from repro.simulator.config import SimulationConfig

TINY = 0.06
FAST = SimulationConfig(strict=False, record_samples=False)


class TestPresets:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert presets.table_scale() == presets.DEFAULT_TABLE_SCALE
        assert presets.seed() == presets.DEFAULT_SEED

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SEED", "77")
        assert presets.table_scale() == 0.5
        assert presets.seed() == 77

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ConfigurationError):
            presets.table_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ConfigurationError):
            presets.table_scale()
        monkeypatch.setenv("REPRO_SEED", "xyz")
        with pytest.raises(ConfigurationError):
            presets.seed()


class TestTables:
    def test_table1_rows_and_render(self):
        comparison = tables.table1(scale=TINY, config=FAST)
        names = [s.policy_name for s in comparison.summaries]
        assert names == ["NoRes", "ResSusUtil", "ResSusRand"]
        text = tables.render(comparison, "Table 1")
        assert "NoRes" in text and "ResSusUtil" in text

    def test_table2_uses_half_cores(self):
        t1 = tables.table1(scale=TINY, config=FAST)
        t2 = tables.table2(scale=TINY, config=FAST)
        # high load roughly doubles utilization pressure -> higher AvgCT
        assert t2.baseline().avg_ct_all > t1.baseline().avg_ct_all

    def test_table4_rows(self):
        comparison = tables.table4(scale=TINY, config=FAST)
        names = [s.policy_name for s in comparison.summaries]
        assert names == ["NoRes", "ResSusWaitUtil", "ResSusWaitRand"]

    def test_table3_and_5_use_util_scheduler(self):
        t3 = tables.table3(scale=TINY, config=FAST)
        assert all(s.scheduler_name == "UtilizationBased" for s in t3.summaries)
        t5 = tables.table5(scale=TINY, config=FAST)
        assert all(s.scheduler_name == "UtilizationBased" for s in t5.summaries)

    def test_high_suspension_has_elevated_suspend_rate(self):
        hs = tables.high_suspension_experiment(scale=TINY, config=FAST)
        t1 = tables.table1(scale=TINY, config=FAST)
        assert hs.baseline().suspend_rate > t1.baseline().suspend_rate


class TestFigures:
    def test_figure2_stats(self):
        figure = figures.figure2(scale=0.04, horizon=15000.0)
        assert figure.analysis.suspended_jobs > 0
        assert figure.cdf_points
        text = figure.render()
        assert "median suspension" in text

    def test_figure3_three_bars(self):
        figure = figures.figure3(scale=TINY)
        assert figure.strategy_names() == ["NoRes", "ResSusUtil", "ResSusRand"]
        assert figure.bars()["NoRes"].resched_time == 0.0
        text = figures.render_figure3(figure)
        assert "Figure 3" in text

    def test_figure4_series(self):
        figure = figures.figure4(scale=0.04, horizon=15000.0)
        analysis = figure.analysis
        assert len(analysis.points) > 50
        assert 0 < analysis.mean_utilization_pct < 100
        assert "utilization" in figure.render()


class TestAblations:
    def test_selector_ablation_names(self):
        comparison = ablations.selector_ablation(scale=TINY)
        names = [s.policy_name for s in comparison.summaries]
        assert names[0] == "NoRes"
        assert any("util" in n for n in names)
        assert len(names) == 6

    def test_threshold_sweep(self):
        comparison = ablations.threshold_sweep(thresholds=(15.0, 60.0), scale=TINY)
        assert len(comparison.summaries) == 3

    def test_overhead_sweep_monotone_overheadcost(self):
        summaries = ablations.overhead_sweep(fixed_minutes=(0.0, 120.0), scale=TINY)
        assert set(summaries) == {0.0, 120.0}
        # higher restart cost cannot reduce total waste
        assert summaries[120.0].avg_wct >= summaries[0.0].avg_wct * 0.8

    def test_duplication_ablation(self):
        comparison = ablations.duplication_ablation(scale=TINY)
        names = [s.policy_name for s in comparison.summaries]
        assert names == ["NoRes", "ResSusUtil", "DupSusUtil", "MigSusUtil"]

    def test_migration_ablation_keys(self):
        summaries = ablations.migration_ablation(dilations=(0.0, 0.2), scale=TINY)
        assert set(summaries) == {0.0, 0.2}


class TestRunner:
    def test_grid_dimensions(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST)
        cells = runner.run(
            scenarios=[smoke_scenario],
            policies=[repro.no_res, repro.res_sus_util],
        )
        assert len(cells) == 2
        assert cells[0].scenario_name == "smoke"
        assert cells[0].result is None

    def test_keep_results(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST, keep_results=True)
        cells = runner.run([smoke_scenario], [repro.no_res])
        assert cells[0].result is not None

    def test_by_scenario_grouping(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST)
        cells = runner.run([smoke_scenario], [repro.no_res])
        grouped = ExperimentRunner.by_scenario(cells)
        assert list(grouped) == ["smoke"]

    def test_validation(self, smoke_scenario):
        runner = ExperimentRunner()
        with pytest.raises(ConfigurationError):
            runner.run([], [repro.no_res])
        with pytest.raises(ConfigurationError):
            runner.run([smoke_scenario], [])
