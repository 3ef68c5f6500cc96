"""Tests for the claims-validation module and CSV export."""

import csv

import pytest

import repro
from repro.analysis.export import (
    write_cdf_csv,
    write_job_records_csv,
    write_summaries_csv,
    write_utilization_csv,
)
from repro.analysis.utilization import analyze_utilization
from repro.core.selectors import LowestUtilizationSelector
from repro.validation import (
    CLAIMS,
    EXPERIMENTS,
    EXTENSION_CLAIMS,
    EXTENSIONS,
    ClaimResult,
    ValidationReport,
    evaluate_claims,
    run_experiments,
)


class TestValidationReport:
    def make(self, passes):
        return ValidationReport(
            results=[
                ClaimResult(
                    claim=f"claim-{i}", paper="x", measured="y", passed=ok
                )
                for i, ok in enumerate(passes)
            ]
        )

    def test_passed_aggregation(self):
        assert self.make([True, True]).passed
        assert not self.make([True, False]).passed

    def test_failures_list(self):
        report = self.make([True, False, False])
        assert len(report.failures) == 2

    def test_render_contains_verdict(self):
        good = self.make([True]).render()
        assert "ALL CLAIMS HOLD" in good
        bad = self.make([False]).render()
        assert "1 CLAIM(S) FAILED" in bad
        assert "!!" in bad

    def test_render_columns_align_past_long_names(self):
        report = ValidationReport(
            results=[
                ClaimResult(claim=claim.name, paper=claim.paper, measured="m", passed=True)
                for claim in CLAIMS
            ]
        )
        rows = report.render().splitlines()
        header, body = rows[0], rows[2 : 2 + len(CLAIMS)]
        paper_at = header.index("paper")
        measured_at = header.index("measured")
        for row, claim in zip(body, CLAIMS):
            assert row.index(claim.paper, len(claim.name) + 3) == paper_at, row
            assert row[measured_at:] == "m", row


class TestValidatePaperClaims:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.validation import validate_paper_claims

        # tiny scale: we check the report's *structure*, not that every
        # claim holds at a scale far below the calibrated one.
        return validate_paper_claims(scale=0.06, year_horizon=15000.0)

    def test_all_claims_evaluated(self, report):
        names = [r.claim for r in report.results]
        assert names == [claim.name for claim in CLAIMS]
        assert len(set(names)) == len(CLAIMS)
        assert all(isinstance(r, ClaimResult) for r in report.results)

    def test_core_claims_hold_even_at_tiny_scale(self, report):
        by_claim = {r.claim: r for r in report.results}
        assert by_claim["suspensions long and right-skewed (Fig 2)"].passed
        assert by_claim["ResSusUtil cuts suspended jobs' AvgCT (T1)"].passed

    def test_render(self, report):
        text = report.render()
        assert "claim" in text
        assert "paper" in text


class TestClaimsTable:
    def test_claims_need_registered_experiments(self):
        for claim in CLAIMS:
            assert claim.needs and set(claim.needs) <= set(EXPERIMENTS), claim.name
            assert claim.owner in claim.needs

    def test_paper_columns_come_from_the_paper_data(self):
        by_name = {claim.name: claim.paper for claim in CLAIMS}
        assert by_name["ResSusUtil cuts suspended jobs' AvgCT (T1)"] == "-49%"
        assert by_name["high load inflates AvgCT(all) (T2 vs T1)"] == "1.74x"
        assert by_name["waiting-job rescheduling improves further (T4 vs T2)"] == (
            "-79% vs -75% CT(susp)"
        )
        assert by_name["random ~ util with second chances (T4-T5)"] == (
            "Rand vs Util AvgWCT +0.8% (T4), -0.6% (T5)"
        )

    def test_claims_catch_a_selector_that_picks_the_busiest_pool(self, monkeypatch):
        """ResSusUtil's Table 1 gains vanish when "Util" sends jobs to the
        most-utilized pool; serial and uncached so no mutated cell is stored."""
        watched = (
            "ResSusUtil cuts suspended jobs' AvgCT (T1)",
            "ResSusUtil cuts AvgWCT by >=33% (T1)",
        )
        table1_claims = [claim for claim in CLAIMS if claim.needs == ("1",)]

        def verdicts():
            results = run_experiments(["1"], scale=0.06, workers=1, use_cache=False)
            by_name = {r.claim: r.passed for r in evaluate_claims(results, table1_claims)}
            return [by_name[name] for name in watched]

        def most_utilized(self, candidates, current_pool, view):
            others = self._others(candidates, current_pool)
            return max(others, key=lambda pid: (view.pool(pid).utilization, pid), default=None)

        assert verdicts() == [True, True]
        monkeypatch.setattr(LowestUtilizationSelector, "select", most_utilized)
        assert verdicts() == [False, False]


def _comparable(result):
    """What a result's equality means: a table's or Figure 3's summaries, else itself."""
    return getattr(result, "summaries", result)


class TestExperimentsAsOneGrid:
    """``run_experiments`` submits every cell at once and computes shared cells once."""

    @pytest.fixture(scope="class")
    def small_presets(self):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (
                ("REPRO_SCALE", "0.06"),
                ("REPRO_YEAR_SCALE", "0.03"),
                ("REPRO_YEAR_HORIZON", "15000"),
            ):
                patch.setenv(name, value)
            patch.delenv("REPRO_SEED", raising=False)
            yield

    @pytest.fixture(scope="class")
    def merged(self, small_presets):
        computed = []
        results = run_experiments(
            list(EXPERIMENTS), workers=1, use_cache=False, progress=computed.append
        )
        return results, computed

    def test_shared_cells_are_simulated_once(self, merged):
        _, computed = merged
        cells = sum(len(experiment.policies) for experiment in EXPERIMENTS.values())
        assert (cells, len(computed)) == (22, 16)
        assert {outcome.provenance for outcome in computed} == {"computed"}

    @pytest.mark.parametrize("key", list(EXPERIMENTS))
    def test_matches_the_experiment_run_alone(self, merged, key):
        results, _ = merged
        alone = EXPERIMENTS[key].run(workers=1, use_cache=False)
        assert _comparable(results[key]) == _comparable(alone)
        assert EXPERIMENTS[key].render(results[key]) == EXPERIMENTS[key].render(alone)


class TestValidateGrid:
    """``repro validate`` checks both claim tables on one grid."""

    @pytest.fixture(scope="class")
    def merged(self):
        needed = {key for claim in CLAIMS + EXTENSION_CLAIMS for key in claim.needs}
        keys = [key for key in {**EXPERIMENTS, **EXTENSIONS} if key in needed]
        computed = []
        results = run_experiments(
            keys, scale=0.03, year_horizon=8000.0, workers=1, use_cache=False,
            progress=computed.append,
        )
        grid = [
            task
            for key in keys
            for task in {**EXPERIMENTS, **EXTENSIONS}[key].tasks(0.03, None, 8000.0)
        ]
        return results, computed, grid

    def test_every_cache_key_is_computed_once(self, merged):
        _, computed, grid = merged
        assert len(computed) == len({task.cache_key for task in grid}) < len(grid)
        assert {outcome.provenance for outcome in computed} == {"computed"}

    def test_the_ablations_no_res_twin_is_simulated_once(self, merged):
        results, computed, _ = merged
        twins = [
            o for o in computed
            if (o.scenario_name, o.policy_name, o.scheduler_name)
            == ("busy-week+high-load", "NoRes", "RoundRobin")
        ]
        assert len(twins) == 1
        table2 = results["2"].baseline()
        for key in ("selectors", "threshold", "duplication"):
            assert results[key].baseline() == table2, key
        assert results["task-level"]["NoRes"][0] == table2

    def test_the_year_long_cell_runs_first(self, merged):
        _, computed, _ = merged
        assert computed[0].scenario_name.startswith("year")

    def test_every_claim_is_evaluated(self, merged):
        results, _, _ = merged
        evaluated = evaluate_claims(results, CLAIMS + EXTENSION_CLAIMS)
        assert [r.claim for r in evaluated] == [c.name for c in CLAIMS + EXTENSION_CLAIMS]


class TestCliValidate:
    def reports(self, extension_holds):
        def report(names, holds):
            return ValidationReport([ClaimResult(n, "p", "m", holds) for n in names])

        return (
            report([c.name for c in CLAIMS], True),
            report([c.name for c in EXTENSION_CLAIMS], extension_holds),
        )

    @pytest.mark.parametrize("extension_holds", [True, False])
    def test_prints_the_paper_table_then_the_extensions(self, monkeypatch, capsys, extension_holds):
        from repro import cli

        paper, extensions = self.reports(extension_holds)
        monkeypatch.setattr(cli, "validate_all_claims", lambda **_: (paper, extensions))
        code = cli.main(["validate"])
        out = capsys.readouterr().out
        assert out.startswith(paper.render() + "\n\n")
        assert out.endswith(extensions.render() + "\n")
        assert code == (0 if extension_holds else 1)


class TestExport:
    def test_summaries_csv_round_trips(self, tmp_path, smoke_result):
        path = tmp_path / "summary.csv"
        write_summaries_csv([repro.summarize(smoke_result)], path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["strategy"] == "NoRes"
        assert float(rows[0]["avg_ct_all"]) > 0

    def test_cdf_csv_monotone(self, tmp_path, smoke_result):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(smoke_result, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        fractions = [float(r["cumulative_fraction"]) for r in rows]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_utilization_csv(self, tmp_path, smoke_result):
        path = tmp_path / "util.csv"
        write_utilization_csv(analyze_utilization(smoke_result), path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) > 10
        assert all(0.0 <= float(r["utilization_pct"]) <= 100.0 for r in rows)

    def test_job_records_csv_complete(self, tmp_path, smoke_result):
        path = tmp_path / "jobs.csv"
        write_job_records_csv(smoke_result, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(smoke_result.records)
        first = rows[0]
        assert "suspension_count" in first
        assert "pools_visited" in first


class TestCliValidateExport:
    def test_cli_export(self, tmp_path, capsys):
        from repro.cli import main

        outdir = tmp_path / "out"
        code = main(["export", str(outdir), "--scenario", "smoke"])
        assert code == 0
        assert (outdir / "job_records.csv").exists()
        assert (outdir / "summary.csv").exists()
        assert (outdir / "utilization.csv").exists()
