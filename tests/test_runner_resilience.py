"""Crash tolerance of the experiment grid runner.

These tests inject real failures into real worker processes: schedulers
that kill their process (``os._exit``) to provoke ``BrokenProcessPool``,
schedulers that stall to trip the cell timeout, and deterministic
exceptions — then assert the grid retries, isolates, reports, and
resumes exactly as :func:`repro.experiments.parallel.run_grid_parallel`
promises.
"""

import os
import time

import pytest

from repro.errors import ConfigurationError, ExperimentExecutionError
from repro.experiments.checkpoint import GridCheckpoint
from repro.experiments.parallel import (
    execute_cells,
    make_cell_task,
    run_grid_parallel,
)
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.workload.scenarios import Scenario

from conftest import make_cluster, make_job, make_trace


def tiny_scenario(name: str, job_count: int = 4) -> Scenario:
    return Scenario(
        name=name,
        description="resilience-test scenario",
        cluster=make_cluster(),
        trace=make_trace(
            [make_job(i, submit=float(i), runtime=5.0) for i in range(job_count)]
        ),
        seed=1,
    )


class CrashUntilMarker(RoundRobinScheduler):
    """Kills the worker process until ``marker`` exists on disk.

    The first execution attempt dies mid-simulation (provoking
    ``BrokenProcessPool`` in the parent); every later attempt runs
    normally, emulating a transient worker death (OOM kill, ...).
    """

    name = "CrashUntilMarker"

    def __init__(self, marker: str) -> None:
        super().__init__()
        self._marker = marker

    def order(self, candidates, view):
        if not os.path.exists(self._marker):
            with open(self._marker, "w"):
                pass
            os._exit(42)
        return super().order(candidates, view)


class CrashAlways(RoundRobinScheduler):
    """Kills the worker process on every attempt: a persistent crasher."""

    name = "CrashAlways"

    def order(self, candidates, view):
        os._exit(42)


class StallForever(RoundRobinScheduler):
    """Stalls long enough that any reasonable cell timeout trips."""

    name = "StallForever"

    def order(self, candidates, view):
        time.sleep(5.0)
        return super().order(candidates, view)


class RaiseDeterministic(RoundRobinScheduler):
    """Raises the same exception on every attempt."""

    name = "RaiseDeterministic"

    def order(self, candidates, view):
        raise ValueError("deterministic failure")


def _no_res():
    from repro.core.policies import NoRescheduling

    return NoRescheduling()


def build_tasks(schedulers):
    config = SimulationConfig(strict=False)
    return [
        make_cell_task(i, tiny_scenario(f"s{i}"), _no_res(), scheduler, config)
        for i, scheduler in enumerate(schedulers)
    ]


class TestWorkerCrashRetry:
    def test_transient_crash_is_retried_and_grid_completes(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        schedulers = [
            RoundRobinScheduler(),
            CrashUntilMarker(marker),
            RoundRobinScheduler(),
            RoundRobinScheduler(),
        ]
        sleeps = []
        report = run_grid_parallel(
            build_tasks(schedulers),
            n_workers=2,
            max_attempts=3,
            retry_backoff=0.01,
            sleep=sleeps.append,
        )
        assert report.ok
        assert len(report.completed) == 4
        assert os.path.exists(marker)
        assert sleeps  # backoff happened after the pool break

    def test_persistent_crasher_is_isolated_and_only_it_fails(self, tmp_path):
        schedulers = [
            RoundRobinScheduler(),
            CrashAlways(),
            RoundRobinScheduler(),
        ]
        report = run_grid_parallel(
            build_tasks(schedulers),
            n_workers=2,
            max_attempts=2,
            retry_backoff=0.0,
            keep_going=True,
        )
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 1
        assert failure.scheduler_name == "CrashAlways"
        assert failure.attempts == 2
        assert "Broken" in failure.error_type
        # the healthy cells all completed despite sharing pools with it
        assert {o.index for o in report.completed} == {0, 2}
        assert report.outcomes[1] is None

    def test_strict_mode_raises_after_retries_exhausted(self):
        schedulers = [RoundRobinScheduler(), CrashAlways()]
        with pytest.raises(ExperimentExecutionError) as excinfo:
            run_grid_parallel(
                build_tasks(schedulers),
                n_workers=2,
                max_attempts=2,
                retry_backoff=0.0,
            )
        assert excinfo.value.scheduler_name == "CrashAlways"


class TestDeterministicFailures:
    def test_keep_going_records_failure_and_finishes_rest(self):
        schedulers = [
            RoundRobinScheduler(),
            RaiseDeterministic(),
            RoundRobinScheduler(),
        ]
        report = run_grid_parallel(
            build_tasks(schedulers), n_workers=1, keep_going=True
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "ValueError"
        assert failure.attempts == 1  # deterministic errors are not retried
        assert {o.index for o in report.completed} == {0, 2}

    def test_strict_failure_carries_completed_cells_in_grid_order(self):
        schedulers = [
            RoundRobinScheduler(),
            RoundRobinScheduler(),
            RaiseDeterministic(),
            RoundRobinScheduler(),
        ]
        with pytest.raises(ExperimentExecutionError) as excinfo:
            execute_cells(build_tasks(schedulers), n_workers=1)
        completed = excinfo.value.completed_cells
        assert [c.index for c in completed] == sorted(c.index for c in completed)
        assert [c.index for c in completed] == [0, 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_grid_parallel([], n_workers=0)
        with pytest.raises(ConfigurationError):
            run_grid_parallel([], max_attempts=0)
        with pytest.raises(ConfigurationError):
            run_grid_parallel([], retry_backoff=-1.0)


class TestCellTimeout:
    def test_stuck_cell_times_out_and_rest_complete(self):
        schedulers = [
            RoundRobinScheduler(),
            StallForever(),
            RoundRobinScheduler(),
        ]
        report = run_grid_parallel(
            build_tasks(schedulers),
            n_workers=3,
            cell_timeout=1.0,
            keep_going=True,
            retry_backoff=0.0,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.scheduler_name == "StallForever"
        assert failure.error_type == "TimeoutError"
        assert "did not finish within" in failure.message
        assert {o.index for o in report.completed} == {0, 2}


class TestCheckpointResume:
    def test_interrupted_grid_resumes_from_checkpoint(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        schedulers = [RoundRobinScheduler() for _ in range(4)]
        tasks = build_tasks(schedulers)

        # First launch is "killed" after two cells: simulate by running
        # only a prefix of the grid against the checkpoint.
        first = run_grid_parallel(
            tasks[:2], n_workers=1, checkpoint=GridCheckpoint(path)
        )
        assert first.ok
        assert len(GridCheckpoint(path)) == 2

        # The relaunch sees the full grid; the finished prefix is served
        # from the checkpoint, byte-identical summaries included.
        resumed = run_grid_parallel(
            tasks, n_workers=1, checkpoint=GridCheckpoint(path)
        )
        assert resumed.ok
        assert [o.from_checkpoint for o in resumed.outcomes] == [
            True,
            True,
            False,
            False,
        ]
        fresh = run_grid_parallel(tasks, n_workers=1)
        assert [o.summary for o in resumed.outcomes] == [
            o.summary for o in fresh.outcomes
        ]

    def test_checkpoint_entry_invalidated_by_config_change(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        tasks = build_tasks([RoundRobinScheduler()])
        run_grid_parallel(tasks, n_workers=1, checkpoint=GridCheckpoint(path))

        changed = [
            make_cell_task(
                0,
                tiny_scenario("s0"),
                _no_res(),
                RoundRobinScheduler(),
                SimulationConfig(strict=False, seed=999),
            )
        ]
        report = run_grid_parallel(
            changed, n_workers=1, checkpoint=GridCheckpoint(path)
        )
        assert report.outcomes[0].from_checkpoint is False

    def test_corrupt_checkpoint_degrades_to_recompute(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        tasks = build_tasks([RoundRobinScheduler(), RoundRobinScheduler()])
        run_grid_parallel(tasks, n_workers=1, checkpoint=GridCheckpoint(path))

        # Simulate a writer SIGKILLed mid-write: only half the bytes.
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert len(GridCheckpoint(path)) == 0

        report = run_grid_parallel(
            tasks, n_workers=1, checkpoint=GridCheckpoint(path)
        )
        assert report.ok
        assert all(not o.from_checkpoint for o in report.outcomes)

    def test_runner_threads_checkpoint_and_keep_going(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        scenario = tiny_scenario("runner")
        runner = ExperimentRunner(
            config=SimulationConfig(strict=False),
            checkpoint_path=tmp_path / "runner.ckpt",
            keep_going=True,
        )
        cells = runner.run([scenario], [_no_res])
        assert len(cells) == 1
        assert runner.last_failures == ()
        assert len(runner.checkpoint) == 1

        resumed = ExperimentRunner(
            config=SimulationConfig(strict=False),
            checkpoint_path=tmp_path / "runner.ckpt",
        )
        cells2 = resumed.run([scenario], [_no_res])
        assert cells2[0].from_checkpoint is True
        assert cells2[0].summary == cells[0].summary
