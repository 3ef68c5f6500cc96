"""Crash tolerance of the experiment grid runner.

These tests inject real failures into real worker processes of the
supervised fleet that ``n_workers > 1`` runs on: schedulers that kill
their process (``os._exit``) and deterministic exceptions — then assert
the grid recovers, isolates, reports and resumes exactly as
:func:`repro.experiments.parallel.run_grid_parallel` promises.

A grid resumes by running again over the same result cache, so the
cache is the grid's checkpoint: ``TestCheckpointResume`` pins that.
"""

import os
import time

import pytest

from repro.errors import ConfigurationError, ExperimentExecutionError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    PROVENANCE_CACHE_HIT,
    PROVENANCE_COMPUTED,
    execute_cells,
    make_cell_task,
    run_grid_parallel,
)
from repro.fabric import SupervisorConfig
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

    The first execution attempt dies mid-simulation; every later
    attempt runs normally, emulating a transient worker death (OOM
    kill, ...).
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


class RaiseDeterministic(RoundRobinScheduler):
    """Raises the same exception on every attempt."""

    name = "RaiseDeterministic"

    def order(self, candidates, view):
        raise ValueError("deterministic failure")


def _no_res():
    from repro.core.policies import NoRescheduling

    return NoRescheduling()


def build_tasks(schedulers, seed=2010):
    config = SimulationConfig(strict=False, seed=seed)
    return [
        make_cell_task(i, tiny_scenario(f"s{i}"), _no_res(), scheduler, config)
        for i, scheduler in enumerate(schedulers)
    ]


@pytest.mark.slow
class TestWorkerCrashRetry:
    def test_transient_crash_is_retried_and_grid_completes(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        schedulers = [
            RoundRobinScheduler(),
            CrashUntilMarker(marker),
            RoundRobinScheduler(),
            RoundRobinScheduler(),
        ]
        start = time.monotonic()
        report = run_grid_parallel(build_tasks(schedulers), n_workers=2)
        elapsed = time.monotonic() - start
        assert report.ok
        assert len(report.completed) == 4
        assert os.path.exists(marker)
        # The supervisor reaped the dead worker and released its cell at
        # once; waiting out the 60 s lease TTL would blow this bound.
        assert elapsed < 20.0
        assert report.backend == "local:2"

    def test_persistent_crasher_is_isolated_and_only_it_fails(self):
        schedulers = [
            RoundRobinScheduler(),
            CrashAlways(),
            RoundRobinScheduler(),
        ]
        start = time.monotonic()
        report = run_grid_parallel(
            build_tasks(schedulers), n_workers=2, keep_going=True
        )
        assert time.monotonic() - start < 60.0
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 1
        assert failure.scheduler_name == "CrashAlways"
        assert failure.error_type == "WorkerDied"
        assert failure.attempts == SupervisorConfig().restart_budget
        # the healthy cells all completed despite sharing the fleet
        assert {o.index for o in report.completed} == {0, 2}
        assert report.outcomes[1] is None

    def test_more_crashers_than_the_spawn_budget_covers_all_fail(self):
        # Five crashers need 15 worker deaths, more than the 6 x 2
        # spawn budget; none may fall through to the coordinator.
        schedulers = [RoundRobinScheduler()] + [CrashAlways() for _ in range(5)]
        start = time.monotonic()
        report = run_grid_parallel(
            build_tasks(schedulers), n_workers=2, keep_going=True
        )
        assert time.monotonic() - start < 60.0
        assert [f.index for f in report.failures] == [1, 2, 3, 4, 5]
        assert {f.error_type for f in report.failures} == {"WorkerDied"}
        assert [o.index for o in report.completed] == [0]

    def test_strict_mode_raises_after_retries_exhausted(self):
        schedulers = [RoundRobinScheduler(), CrashAlways(), RoundRobinScheduler()]
        with pytest.raises(ExperimentExecutionError) as excinfo:
            run_grid_parallel(build_tasks(schedulers), n_workers=2)
        assert excinfo.value.scheduler_name == "CrashAlways"
        assert "WorkerDied" in str(excinfo.value)
        completed = excinfo.value.completed_cells
        assert [c.index for c in completed] == [0, 2]


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
            execute_cells([], n_workers=-1)


class TestCheckpointResume:
    """The result cache is the grid's checkpoint."""

    def test_interrupted_grid_resumes_from_checkpoint(self, tmp_path):
        schedulers = [RoundRobinScheduler() for _ in range(4)]
        tasks = build_tasks(schedulers)

        # First launch is "killed" after two cells: simulate by running
        # only a prefix of the grid against the cache.
        first = run_grid_parallel(tasks[:2], cache=ResultCache(tmp_path))
        assert first.ok

        # The relaunch sees the full grid; the finished prefix is served
        # from the cache, byte-identical summaries included.
        resumed = run_grid_parallel(tasks, cache=ResultCache(tmp_path))
        assert resumed.ok
        assert [o.provenance for o in resumed.outcomes] == [
            PROVENANCE_CACHE_HIT,
            PROVENANCE_CACHE_HIT,
            PROVENANCE_COMPUTED,
            PROVENANCE_COMPUTED,
        ]
        fresh = run_grid_parallel(tasks)
        assert [o.summary for o in resumed.outcomes] == [
            o.summary for o in fresh.outcomes
        ]

    def test_checkpoint_entry_invalidated_by_config_change(self, tmp_path):
        run_grid_parallel(
            build_tasks([RoundRobinScheduler()]), cache=ResultCache(tmp_path)
        )
        changed = build_tasks([RoundRobinScheduler()], seed=999)
        report = run_grid_parallel(changed, cache=ResultCache(tmp_path))
        assert report.outcomes[0].provenance == PROVENANCE_COMPUTED

    def test_corrupt_checkpoint_degrades_to_recompute(self, tmp_path):
        tasks = build_tasks([RoundRobinScheduler(), RoundRobinScheduler()])
        clean = run_grid_parallel(tasks, cache=ResultCache(tmp_path))

        # Simulate a writer SIGKILLed mid-write: only half the bytes.
        path = ResultCache(tmp_path).path_for(tasks[0].cache_key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        cache = ResultCache(tmp_path)
        report = run_grid_parallel(tasks, cache=cache)
        assert report.ok
        assert [o.provenance for o in report.outcomes] == [
            PROVENANCE_COMPUTED,
            PROVENANCE_CACHE_HIT,
        ]
        assert cache.stats.evictions == 1
        assert [o.summary for o in report.outcomes] == [
            o.summary for o in clean.outcomes
        ]

    def test_runner_threads_checkpoint_and_keep_going(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        scenario = tiny_scenario("runner")
        runner = ExperimentRunner(
            config=SimulationConfig(strict=False),
            cache_dir=tmp_path,
            keep_going=True,
        )
        cells = runner.run([scenario], [_no_res])
        assert len(cells) == 1
        assert runner.last_failures == ()
        assert runner.cache_stats.stores == 1

        resumed = ExperimentRunner(
            config=SimulationConfig(strict=False), cache_dir=tmp_path
        )
        cells2 = resumed.run([scenario], [_no_res])
        assert cells2[0].provenance == PROVENANCE_CACHE_HIT
        assert cells2[0].summary == cells[0].summary
