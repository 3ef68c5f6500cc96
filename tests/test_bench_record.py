"""Tests for the engine-throughput trajectory harness (repro.benchtrack)."""

import json

import pytest

from repro import benchtrack
from repro.benchtrack import (
    BenchFormatError,
    Record,
    WorkloadResult,
    WorkloadSpec,
    check_regression,
    load_history,
    record_from_dict,
    record_to_dict,
    write_record,
)


def workload(name="cell", jps=100.0, digest="d" * 64, **spec_kwargs):
    spec = WorkloadSpec(name=name, **spec_kwargs)
    return WorkloadResult(
        spec=spec,
        jobs=1000,
        rounds=3,
        best_wall_seconds=1000.0 / jps,
        jobs_per_second=jps,
        result_digest=digest,
    )


def record(label="rec", calibration=10.0, workloads=(), **kwargs):
    return Record(
        suite="engine",
        label=label,
        recorded_at=None,
        calibration_score=calibration,
        results=tuple(workloads),
        **kwargs,
    )


class TestSchemaRoundTrip:
    def test_round_trip_through_json(self):
        original = record(
            label="abc123",
            workloads=[workload(), workload(name="other", scale=0.25, faults=True)],
            table1_cold_seconds=2.5,
            table1_warm_seconds=0.1,
            notes="host class X",
        )
        payload = json.loads(json.dumps(record_to_dict(original)))
        assert record_from_dict(payload) == original

    def test_timestamp_survives(self):
        original = Record(
            suite="engine",
            label="x",
            recorded_at="2026-08-09T00:00:00+00:00",
            calibration_score=1.0,
            results=(),
        )
        assert record_from_dict(record_to_dict(original)) == original

    def test_unsupported_schema_version_rejected(self):
        payload = record_to_dict(record())
        payload["schema_version"] = 999
        with pytest.raises(BenchFormatError):
            record_from_dict(payload)

    def test_missing_field_rejected(self):
        payload = record_to_dict(record())
        del payload["calibration_score"]
        with pytest.raises(BenchFormatError):
            record_from_dict(payload)


class TestHistoryFile:
    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.json")) == []

    def test_append_grows_history(self, tmp_path):
        path = str(tmp_path / "BENCH_engine.json")
        assert write_record(path, record(label="first")) == 1
        assert write_record(path, record(label="second")) == 2
        history = load_history(path)
        assert [r.label for r in history] == ["first", "second"]

    def test_overwrite_restarts_history(self, tmp_path):
        path = str(tmp_path / "BENCH_engine.json")
        write_record(path, record(label="first"))
        write_record(path, record(label="second"))
        assert write_record(path, record(label="fresh"), append=False) == 1
        assert [r.label for r in load_history(path)] == ["fresh"]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(BenchFormatError):
            load_history(str(path))


class TestRegressionGate:
    def test_large_drop_fails(self):
        prev = record(workloads=[workload(jps=100.0)])
        cur = record(workloads=[workload(jps=70.0)])
        failures = check_regression(prev, cur, threshold=0.20)
        assert len(failures) == 1
        assert "cell" in failures[0]

    def test_small_drop_passes(self):
        prev = record(workloads=[workload(jps=100.0)])
        cur = record(workloads=[workload(jps=90.0)])
        assert check_regression(prev, cur, threshold=0.20) == []

    def test_speedup_passes(self):
        prev = record(workloads=[workload(jps=100.0)])
        cur = record(workloads=[workload(jps=500.0)])
        assert check_regression(prev, cur) == []

    def test_calibration_normalises_across_machines(self):
        # Half the raw throughput on a machine that calibrates at half
        # the score is not a regression.
        prev = record(calibration=10.0, workloads=[workload(jps=100.0)])
        cur = record(calibration=5.0, workloads=[workload(jps=50.0)])
        assert check_regression(prev, cur) == []

    def test_respec_starts_a_new_trajectory(self):
        prev = record(workloads=[workload(jps=100.0, scale=0.08)])
        cur = record(workloads=[workload(jps=10.0, scale=1.0)])
        assert check_regression(prev, cur) == []

    def test_new_workload_is_not_gated(self):
        prev = record(workloads=[])
        cur = record(workloads=[workload(jps=1.0)])
        assert check_regression(prev, cur) == []

    def test_digest_change_fails(self):
        prev = record(workloads=[workload(digest="a" * 64)])
        cur = record(workloads=[workload(digest="b" * 64)])
        failures = check_regression(prev, cur)
        assert len(failures) == 1
        assert "cell" in failures[0] and "digest" in failures[0]

    def test_digest_change_after_respec_passes(self):
        prev = record(workloads=[workload(digest="a" * 64, scale=0.08)])
        cur = record(workloads=[workload(digest="b" * 64, scale=0.25)])
        assert check_regression(prev, cur) == []

    def test_bad_calibration_rejected(self):
        prev = record(calibration=0.0, workloads=[workload()])
        with pytest.raises(BenchFormatError):
            check_regression(prev, record(workloads=[workload()]))


class TestMeasurement:
    TINY = WorkloadSpec(name="tiny", scale=0.02)

    def test_fixed_seed_measurement_is_deterministic(self):
        first = benchtrack.measure_workload(self.TINY, rounds=1)
        second = benchtrack.measure_workload(self.TINY, rounds=1)
        assert first.jobs == second.jobs > 0
        assert first.result_digest == second.result_digest
        assert len(first.result_digest) == 64

    def test_rounds_cross_check_digests(self):
        # rounds > 1 re-runs the same seed and asserts digest equality
        # internally; reaching the return proves the engine replayed
        # identically.
        result = benchtrack.measure_workload(self.TINY, rounds=2)
        assert result.rounds == 2
        assert result.jobs_per_second > 0

    def test_quick_matrix_is_a_subset(self):
        names = {spec.name for spec in benchtrack.WORKLOADS}
        quick = {spec.name for spec in benchtrack.QUICK_WORKLOADS}
        assert quick < names
        assert all(spec.scale <= 0.25 for spec in benchtrack.QUICK_WORKLOADS)


def _load_driver():
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "bench_record.py",
    )
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDriverDefaults:
    """``--output`` and ``--threshold`` resolve from the suite only when unset."""

    @pytest.fixture
    def driver(self, monkeypatch, tmp_path):
        from dataclasses import replace

        from repro.benchtrack import (
            ChaosScenarioResult, ChaosSpec, GridResult, GridSpec,
        )

        def chaos_result(spec, rounds, progress):
            return ChaosScenarioResult(
                spec=spec, cells=4, wall_seconds=6.0, recovery_seconds=5.6,
                restarts=1, quarantined=0, cells_recovered=1, takeovers=0,
                swept_leases=0, violations=(),
            )

        def grid_result(spec, rounds, progress):
            return GridResult(spec=spec, cells=4, digest="d" * 64, timings=(),
                              warm_seconds=0.1)

        suites = benchtrack.SUITES
        monkeypatch.setitem(suites, "chaos", replace(
            suites["chaos"], measure=chaos_result, matrix=(ChaosSpec("kill-storm"),),
        ))
        monkeypatch.setitem(suites, "grid", replace(
            suites["grid"], measure=grid_result,
            matrix=(GridSpec(name="g", preset="smoke"),),
        ))
        monkeypatch.setattr(benchtrack, "calibrate", lambda: 10.0)
        monkeypatch.chdir(tmp_path)
        return _load_driver()

    def test_explicit_output_is_not_redirected(self, driver, tmp_path):
        assert driver.main(["--grid", "--label", "x", "--output", "BENCH_engine.json"]) == 0
        written = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert "grids" in written["records"][0]
        assert not (tmp_path / "BENCH_grid.json").exists()

    def test_default_output_is_the_suite_file(self, driver, tmp_path):
        assert driver.main(["--grid", "--label", "x"]) == 0
        assert [r.suite for r in load_history(str(tmp_path / "BENCH_grid.json"))] == ["grid"]
        assert not (tmp_path / "BENCH_engine.json").exists()

    def test_explicit_threshold_is_kept(self, driver, tmp_path):
        # Baseline recovery 4.0s: 5.6s passes the chaos default
        # (4.0 * 1.25 + 0.75 = 5.75) but not an explicit 0.2
        # (4.0 * 1.2 + 0.75 = 5.55).
        baseline = benchtrack.Record(
            suite="chaos", label="base", recorded_at=None, calibration_score=10.0,
            available_cores=4,
            results=(benchtrack.ChaosScenarioResult(
                spec=benchtrack.ChaosSpec("kill-storm"), cells=4, wall_seconds=5.0,
                recovery_seconds=4.0, restarts=1, quarantined=0, cells_recovered=1,
                takeovers=0, swept_leases=0, violations=(),
            ),),
        )
        write_record(str(tmp_path / "BENCH_chaos.json"), baseline)
        assert driver.main(["--chaos", "--check"]) == 0
        assert driver.main(["--chaos", "--check", "--threshold", "0.2"]) == 1
