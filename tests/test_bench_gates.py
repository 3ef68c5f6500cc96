"""Pins the grid and chaos trajectory gates and the committed BENCH files.

One test per gate rule, so a refactor of :mod:`repro.benchtrack` that
changes what a rule accepts fails here by name.  The round-trip tests
load every committed ``BENCH_*.json`` trajectory and rewrite it: the
bytes must come back unchanged, so the schema cannot drift without the
committed history noticing.
"""

from __future__ import annotations

import os

import pytest

from repro import benchtrack
from repro.benchtrack import (
    CHAOS_EPSILON_SECONDS,
    GRID_MIN_SPEEDUP,
    ChaosScenarioResult,
    ChaosSpec,
    GridBackendTiming,
    GridResult,
    GridSpec,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAULT_SWEEP = GridSpec(name="fault_sweep", preset="fault-sweep", scale=0.06)
PADDED = GridSpec(name="smoke_padded", preset="smoke", cell_floor=3.0)


def grid(spec=FAULT_SWEEP, digest="a" * 64, **rates):
    """One grid result; ``rates`` maps backend name to cells/sec."""
    rates = rates or {"serial": 1.0}
    return GridResult(
        spec=spec,
        cells=12,
        digest=digest,
        timings=tuple(
            GridBackendTiming(
                backend=backend.replace("_", ":"),
                wall_seconds=12 / rate,
                cells_per_second=rate,
            )
            for backend, rate in rates.items()
        ),
        warm_seconds=0.5,
    )


def grid_record(*grids, calibration=10.0):
    return benchtrack.Record(
        suite="grid",
        label="grid",
        recorded_at=None,
        calibration_score=calibration,
        available_cores=4,
        results=tuple(grids),
    )


def scenario(name="kill-storm", recovery=4.0, violations=(), seed=2010):
    return ChaosScenarioResult(
        spec=ChaosSpec(name=name, seed=seed),
        cells=12,
        wall_seconds=recovery + 1.0,
        recovery_seconds=recovery,
        restarts=3,
        quarantined=1,
        cells_recovered=2,
        takeovers=1,
        swept_leases=0,
        violations=tuple(violations),
    )


def chaos_record(*scenarios):
    return benchtrack.Record(
        suite="chaos",
        label="chaos",
        recorded_at=None,
        calibration_score=10.0,
        available_cores=4,
        results=tuple(scenarios),
    )


check_grid = benchtrack.check_regression
check_chaos = benchtrack.check_regression


class TestGridGate:
    def test_digest_flip_fails(self):
        failures = check_grid(
            grid_record(grid(digest="a" * 64)), grid_record(grid(digest="b" * 64))
        )
        assert len(failures) == 1
        assert "fault_sweep" in failures[0] and "digest" in failures[0]

    def test_unpadded_cells_per_second_is_calibration_normalised(self):
        prev = grid_record(grid(serial=2.0), calibration=10.0)
        # Half the raw rate on a machine that calibrates at half the
        # score is not a regression ...
        assert check_grid(prev, grid_record(grid(serial=1.0), calibration=5.0)) == []
        # ... but half the raw rate at the same score is.
        failures = check_grid(prev, grid_record(grid(serial=1.0), calibration=10.0))
        assert len(failures) == 1
        assert "fault_sweep/serial" in failures[0]
        assert "normalised cells/sec dropped" in failures[0]

    def test_padded_cells_per_second_is_raw(self):
        prev = grid_record(grid(PADDED, subprocess_2=2.0), calibration=10.0)
        # Padded cells are wall-clock-bound: a slower calibration does
        # not excuse a raw drop ...
        failures = check_grid(
            prev, grid_record(grid(PADDED, subprocess_2=1.0), calibration=5.0)
        )
        assert len(failures) == 1
        assert "smoke_padded/subprocess:2: cells/sec dropped" in failures[0]
        # ... and a faster calibration does not turn an equal raw rate
        # into a regression.
        assert check_grid(
            prev, grid_record(grid(PADDED, subprocess_2=2.0), calibration=20.0)
        ) == []

    def test_backends_are_joined_by_name(self):
        prev = grid_record(grid(serial=1.0, subprocess_2=2.0))
        reordered = grid_record(grid(subprocess_2=2.0, serial=1.0, subprocess_8=0.01))
        assert check_grid(prev, reordered) == []
        dropped = grid_record(grid(subprocess_2=1.0, serial=1.0))
        failures = check_grid(prev, dropped)
        assert len(failures) == 1
        assert "fault_sweep/subprocess:2" in failures[0]

    def test_changed_spec_is_skipped(self):
        prev = grid_record(grid(digest="a" * 64, serial=2.0))
        respec = GridSpec(name="fault_sweep", preset="fault-sweep", scale=0.06, seed=7)
        cur = grid_record(grid(respec, digest="b" * 64, serial=0.1))
        assert check_grid(prev, cur) == []

    def test_padded_speedup_below_floor_fails(self):
        slow = grid(PADDED, subprocess_1=1.0, subprocess_4=2.0)
        failures = check_grid(grid_record(slow), grid_record(slow))
        assert len(failures) == 1
        assert "smoke_padded: subprocess:4 speedup" in failures[0]
        at_floor = grid(PADDED, subprocess_1=1.0, subprocess_4=GRID_MIN_SPEEDUP)
        assert check_grid(grid_record(at_floor), grid_record(at_floor)) == []


class TestChaosGate:
    def test_any_violation_fails(self):
        broken = scenario(violations=("cell 3 lost",))
        failures = check_chaos(chaos_record(), chaos_record(broken))
        assert len(failures) == 1
        assert "kill-storm: invariant violated" in failures[0]
        assert "cell 3 lost" in failures[0]

    def test_limit_is_relative_plus_epsilon(self):
        prev = chaos_record(scenario(recovery=4.0))
        limit = 4.0 * 1.5 + CHAOS_EPSILON_SECONDS
        at_limit = chaos_record(scenario(recovery=limit))
        over = chaos_record(scenario(recovery=limit + 1e-6))
        assert check_chaos(prev, at_limit, threshold=0.5) == []
        failures = check_chaos(prev, over, threshold=0.5)
        assert len(failures) == 1
        assert "kill-storm: recovery took" in failures[0]

    def test_violated_baseline_is_not_gated_on_time(self):
        prev = chaos_record(scenario(recovery=1.0, violations=("x",)))
        assert check_chaos(prev, chaos_record(scenario(recovery=100.0))) == []


TRAJECTORIES = {
    suite.path: (benchtrack.load_history, benchtrack.write_record)
    for suite in benchtrack.SUITES.values()
}


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_committed_trajectory_rewrites_byte_for_byte(name, tmp_path):
    load, write = TRAJECTORIES[name]
    committed = os.path.join(REPO, name)
    history = load(committed)
    assert history, f"{name} must ship at least one record"
    rewritten = str(tmp_path / name)
    for record in history:
        write(rewritten, record)
    with open(committed, "rb") as before, open(rewritten, "rb") as after:
        assert after.read() == before.read()


class TestNoBaseline:
    """The overlap floor and the invariant check need no previous record."""

    def test_padded_speedup_floor_applies(self):
        slow = grid(PADDED, subprocess_1=1.0, subprocess_4=2.0)
        failures = benchtrack.check_regression(None, grid_record(slow))
        assert len(failures) == 1
        assert "smoke_padded: subprocess:4 speedup" in failures[0]

    def test_chaos_violation_fails(self):
        broken = scenario(violations=("cell 3 lost",))
        failures = benchtrack.check_regression(None, chaos_record(broken))
        assert failures == ["kill-storm: invariant violated — cell 3 lost"]

    def test_clean_records_pass(self):
        ok = grid(PADDED, subprocess_1=1.0, subprocess_4=GRID_MIN_SPEEDUP)
        assert benchtrack.check_regression(None, grid_record(ok)) == []
        assert benchtrack.check_regression(None, chaos_record(scenario())) == []

    def test_relative_terms_need_a_baseline(self):
        assert benchtrack.check_regression(None, grid_record(grid(digest="b" * 64))) == []
