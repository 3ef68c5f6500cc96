"""BENCH_ingest.json machinery: serialization and the regression gate."""

from __future__ import annotations

import pytest

from repro import benchtrack
from repro.benchtrack import BenchFormatError


def _record(label="abc", calibration=1000.0, jps=8000.0, rss=40.0, name="swf_100k"):
    spec = benchtrack.IngestSpec(name=name)
    return benchtrack.Record(
        suite="ingest",
        label=label,
        recorded_at="2026-08-09T00:00:00+00:00",
        calibration_score=calibration,
        results=(
            benchtrack.IngestResult(
                spec=spec,
                jobs=spec.jobs,
                wall_seconds=spec.jobs / jps,
                jobs_per_second=jps,
                peak_rss_mb=rss,
            ),
        ),
    )


class TestSerialization:
    def test_record_round_trips_through_json_dict(self):
        record = _record()
        data = benchtrack.record_to_dict(record)
        assert benchtrack.record_from_dict(data) == record

    def test_write_and_load_history(self, tmp_path):
        path = str(tmp_path / "BENCH_ingest.json")
        assert benchtrack.write_record(path, _record(label="r1")) == 1
        assert benchtrack.write_record(path, _record(label="r2")) == 2
        history = benchtrack.load_history(path)
        assert [r.label for r in history] == ["r1", "r2"]

    def test_overwrite_starts_fresh(self, tmp_path):
        path = str(tmp_path / "BENCH_ingest.json")
        benchtrack.write_record(path, _record(label="r1"))
        assert benchtrack.write_record(
            path, _record(label="r2"), append=False
        ) == 1
        assert [r.label for r in benchtrack.load_history(path)] == ["r2"]

    def test_missing_history_is_empty(self, tmp_path):
        assert benchtrack.load_history(str(tmp_path / "none.json")) == []


class TestRegressionGate:
    def test_equal_records_pass(self):
        assert benchtrack.check_regression(_record(), _record()) == []

    def test_throughput_is_calibration_normalised(self):
        # Half the throughput on a half-speed machine is not a regression.
        slow = _record(calibration=500.0, jps=4000.0)
        assert benchtrack.check_regression(_record(), slow) == []

    def test_throughput_drop_fails(self):
        current = _record(jps=5000.0)  # 37.5% normalised drop
        failures = benchtrack.check_regression(_record(), current)
        assert len(failures) == 1
        assert "throughput dropped" in failures[0]

    def test_rss_growth_fails(self):
        current = _record(rss=90.0)  # limit = 40 * 1.25 + 16 = 66 MB
        failures = benchtrack.check_regression(_record(), current)
        assert len(failures) == 1
        assert "RSS grew" in failures[0]

    def test_rss_slack_allows_noise(self):
        current = _record(rss=60.0)
        assert benchtrack.check_regression(_record(), current) == []

    def test_unmatched_or_changed_spec_is_skipped(self):
        renamed = _record(name="other_cell", jps=1.0, rss=9999.0)
        assert benchtrack.check_regression(_record(), renamed) == []

    def test_bad_calibration_raises(self):
        broken = _record(calibration=0.0)
        with pytest.raises(BenchFormatError):
            benchtrack.check_regression(_record(), broken)


class TestCommittedTrajectory:
    def test_repo_trajectory_parses_and_matches_the_ci_fixture(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_ingest.json",
        )
        history = benchtrack.load_history(path)
        assert history, "BENCH_ingest.json must ship at least one record"
        latest = history[-1]
        names = {r.spec.name for r in latest.results}
        assert {"swf_100k", "google_30k"} <= names
        for result in latest.results:
            assert result.jobs_per_second > 0
            assert result.peak_rss_mb > 0
