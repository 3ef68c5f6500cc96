"""Tests for the parallel experiment execution backend.

Covers the contract the ROADMAP's sweep-style PRs build on:

* serial and parallel grids produce bit-identical summaries (parallel
  grids run on the supervised local worker fleet, over the caller's
  cache or a temporary one);
* per-cell seeds derive from cell identity, not call order, so
  reordering a grid (or running one cell alone) reproduces results;
* pickling-hostile policies transparently fall back to serial
  execution;
* a failing cell names itself and never loses completed cells.
"""

from __future__ import annotations

import pickle

import pytest

import repro
from repro.core.policies import NoRescheduling
from repro.errors import ConfigurationError, ExperimentExecutionError
from repro.experiments import parallel as parallel_mod
from repro.experiments.cache import ResultCache, derive_cell_seed, stable_hash
from repro.experiments.parallel import (
    CellTask,
    _is_portable,
    _portable_tasks,
    execute_cells,
    make_cell_task,
    run_grid_parallel,
)
from repro.experiments.runner import ExperimentRunner
from repro.simulator.config import SimulationConfig
from repro.simulator.observer import EventLog
from repro.telemetry import Instrumentation

FAST = SimulationConfig(strict=False, record_samples=False)

ALL_POLICIES = [repro.no_res, repro.res_sus_util, repro.res_sus_rand]


class ExplodingPolicy(NoRescheduling):
    """Raises the first time the engine consults it."""

    name = "Exploding"

    def on_suspend(self, job, view):
        raise RuntimeError("boom in on_suspend")


def exploding_policy() -> ExplodingPolicy:
    return ExplodingPolicy()


def hostile_policy():
    """A picklable-class policy made unpicklable by a lambda attribute."""
    policy = repro.no_res()
    policy.hostile_attr = lambda: None  # lambdas cannot be pickled
    policy.name = "HostileNoRes"
    return policy


class TestSerialParallelEquivalence:
    def test_run_grid_summaries_identical(self, smoke_scenario):
        serial = ExperimentRunner(config=FAST, n_workers=1).run(
            [smoke_scenario], ALL_POLICIES
        )
        parallel = ExperimentRunner(config=FAST, n_workers=4).run(
            [smoke_scenario], ALL_POLICIES
        )
        assert [c.summary for c in serial] == [c.summary for c in parallel]
        assert [c.seed for c in serial] == [c.seed for c in parallel]
        assert not any(c.from_cache for c in serial + parallel)

    def test_parallel_cells_report_wall_time(self, smoke_scenario):
        cells = ExperimentRunner(config=FAST, n_workers=2).run(
            [smoke_scenario], [repro.no_res, repro.res_sus_util]
        )
        assert all(c.wall_seconds > 0 for c in cells)

    def test_compare_strategies_parallel_matches_serial(self, smoke_scenario):
        from repro.analysis.comparison import compare_strategies

        serial = compare_strategies(
            smoke_scenario, [repro.no_res(), repro.res_sus_rand()], config=FAST
        )
        parallel = compare_strategies(
            smoke_scenario,
            [repro.no_res(), repro.res_sus_rand()],
            config=FAST,
            n_workers=2,
        )
        assert serial.summaries == parallel.summaries


    def test_keep_results_parallel_matches_serial(self, smoke_scenario):
        policies = [repro.no_res, repro.res_sus_util]
        serial = ExperimentRunner(config=FAST, keep_results=True).run(
            [smoke_scenario], policies
        )
        parallel = ExperimentRunner(
            config=FAST, n_workers=2, keep_results=True
        ).run([smoke_scenario], policies)
        assert all(c.result is not None for c in parallel)
        assert [stable_hash(c.summary) for c in parallel] == [
            stable_hash(c.summary) for c in serial
        ]
        assert [c.result.records for c in parallel] == [
            c.result.records for c in serial
        ]

    def test_cache_less_fleet_cleans_up_its_temporary_cache(
        self, smoke_scenario, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        tasks = [
            make_cell_task(i, smoke_scenario, factory(), None, FAST)
            for i, factory in enumerate(ALL_POLICIES)
        ]
        report = run_grid_parallel(tasks, n_workers=2)
        serial = run_grid_parallel(tasks, n_workers=1)
        assert [o.summary for o in report.outcomes] == [
            o.summary for o in serial.outcomes
        ]
        assert report.backend == "local:2"
        assert list(tmp_path.iterdir()) == []

    def test_identical_cells_are_all_reported(self, smoke_scenario, tmp_path):
        # the same policy twice: one cache key, two grid cells
        tasks = [
            make_cell_task(i, smoke_scenario, repro.no_res(), None, FAST)
            for i in range(2)
        ] + [make_cell_task(2, smoke_scenario, repro.res_sus_util(), None, FAST)]
        report = run_grid_parallel(
            tasks, n_workers=2, cache=ResultCache(tmp_path)
        )
        assert report.ok
        assert [o.index for o in report.outcomes] == [0, 1, 2]
        assert report.outcomes[0].summary == report.outcomes[1].summary


class TestCellSeeding:
    def test_cells_with_different_policies_get_different_seeds(self, smoke_scenario):
        cells = ExperimentRunner(config=FAST).run([smoke_scenario], ALL_POLICIES)
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)

    def test_seed_depends_on_identity_not_call_order(self, smoke_scenario):
        forward = ExperimentRunner(config=FAST).run(
            [smoke_scenario], [repro.res_sus_util, repro.res_sus_rand]
        )
        reversed_ = ExperimentRunner(config=FAST).run(
            [smoke_scenario], [repro.res_sus_rand, repro.res_sus_util]
        )
        by_policy_fwd = {c.policy_name: c for c in forward}
        by_policy_rev = {c.policy_name: c for c in reversed_}
        for name in by_policy_fwd:
            assert by_policy_fwd[name].seed == by_policy_rev[name].seed
            assert by_policy_fwd[name].summary == by_policy_rev[name].summary

    def test_single_cell_reproduces_its_grid_result(self, smoke_scenario):
        grid = ExperimentRunner(config=FAST).run([smoke_scenario], ALL_POLICIES)
        alone = ExperimentRunner(config=FAST).run(
            [smoke_scenario], [repro.res_sus_rand]
        )
        grid_cell = next(c for c in grid if c.policy_name == "ResSusRand")
        assert alone[0].summary == grid_cell.summary

    def test_derive_cell_seed_is_stable_and_distinct(self):
        a = derive_cell_seed(2010, "smoke#7|NoRes|RoundRobin")
        assert a == derive_cell_seed(2010, "smoke#7|NoRes|RoundRobin")
        assert a != derive_cell_seed(2010, "smoke#7|ResSusUtil|RoundRobin")
        assert a != derive_cell_seed(2011, "smoke#7|NoRes|RoundRobin")


class TestPicklingFallback:
    def test_hostile_policy_falls_back_to_serial(self, smoke_scenario):
        parallel = ExperimentRunner(config=FAST, n_workers=2).run(
            [smoke_scenario], [hostile_policy, repro.res_sus_util]
        )
        serial = ExperimentRunner(config=FAST, n_workers=1).run(
            [smoke_scenario], [hostile_policy, repro.res_sus_util]
        )
        assert [c.summary for c in parallel] == [c.summary for c in serial]
        assert parallel[0].policy_name == "HostileNoRes"


    def test_main_module_payload_is_not_portable(self, smoke_scenario):
        task = make_cell_task(0, smoke_scenario, repro.no_res(), None, FAST)
        assert _is_portable(task)

        class MainPolicy(NoRescheduling):
            name = "MainPolicy"

        MainPolicy.__module__ = "__main__"
        MainPolicy.__qualname__ = "MainPolicy"
        import __main__

        setattr(__main__, "MainPolicy", MainPolicy)
        try:
            task = make_cell_task(0, smoke_scenario, MainPolicy(), None, FAST)
            pickle.dumps(task)  # it pickles, but a worker could not load it
            assert not _is_portable(task)
        finally:
            delattr(__main__, "MainPolicy")


    def test_portable_grid_is_checked_with_one_pickle(
        self, smoke_scenario, monkeypatch
    ):
        tasks = [
            make_cell_task(i, smoke_scenario, factory(), None, FAST)
            for i, factory in enumerate([repro.no_res, repro.res_sus_util])
        ]
        checked = []

        def counting(payload):
            checked.append(payload)
            return real(payload)

        real = parallel_mod._is_portable
        monkeypatch.setattr(parallel_mod, "_is_portable", counting)
        assert _portable_tasks(tasks) == tasks
        assert checked == [tasks]
        checked.clear()
        tasks.append(make_cell_task(2, smoke_scenario, hostile_policy(), None, FAST))
        assert _portable_tasks(tasks) == tasks[:2]
        assert checked == [tasks, *tasks]

    def test_fleet_grid_pickles_its_task_list_once(
        self, smoke_scenario, tmp_path, monkeypatch
    ):
        from repro.fabric import run_grid_fabric
        from repro.fabric.lease import LeaseStore
        from repro.fabric.worker import load_manifest, run_worker, write_manifest

        tasks = [
            make_cell_task(i, smoke_scenario, factory(), None, FAST)
            for i, factory in enumerate(ALL_POLICIES)
        ]
        real = pickle.dumps
        expected = real(list(tasks), protocol=pickle.HIGHEST_PROTOCOL)
        dumped = []

        def counting(obj, *args, **kwargs):
            if isinstance(obj, list) and obj and all(isinstance(t, CellTask) for t in obj):
                dumped.append(len(obj))
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting)
        manifests = []

        class InProcessFleet:
            name = "inproc"

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                path = write_manifest(
                    run_tasks, cache_dir / "manifests" / f"{run_id}.manifest"
                )
                manifests.append(path.read_bytes())
                leases = LeaseStore(cache_dir, run_id=run_id, worker_id=f"{run_id}-w0")
                run_worker(load_manifest(path), ResultCache(cache_dir), leases, poll_interval=0.01)

        report = run_grid_fabric(tasks, InProcessFleet(), ResultCache(tmp_path))
        assert report.ok and len(report.completed) == len(tasks)
        # The portability check's pickle is the manifest, byte for byte.
        assert dumped == [len(tasks)]
        assert manifests == [expected]


class TestErrorPaths:
    def test_factory_error_names_cell_and_keeps_completed(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST)
        with pytest.raises(ExperimentExecutionError) as excinfo:
            runner.run(
                [smoke_scenario],
                [repro.no_res, _raising_factory, repro.res_sus_util],
            )
        err = excinfo.value
        assert err.scenario_name == "smoke"
        assert err.policy_name == "_raising_factory"
        assert err.scheduler_name == "RoundRobinScheduler"
        assert "smoke" in str(err) and "_raising_factory" in str(err)
        # the cell that ran before the failure survives on the error
        assert [c.policy_name for c in err.completed_cells] == ["NoRes"]

    def test_simulation_error_names_cell_serial(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST, n_workers=1)
        with pytest.raises(ExperimentExecutionError) as excinfo:
            runner.run(
                [smoke_scenario], [repro.no_res, exploding_policy, repro.res_sus_util]
            )
        err = excinfo.value
        assert err.policy_name == "Exploding"
        assert [c.policy_name for c in err.completed_cells] == ["NoRes"]

    def test_simulation_error_names_cell_parallel(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST, n_workers=2)
        with pytest.raises(ExperimentExecutionError) as excinfo:
            runner.run(
                [smoke_scenario], [repro.no_res, exploding_policy, repro.res_sus_util]
            )
        assert excinfo.value.policy_name == "Exploding"

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(n_workers=0)
        with pytest.raises(ConfigurationError):
            execute_cells([], n_workers=0)

    def test_empty_grid_still_validated(self, smoke_scenario):
        runner = ExperimentRunner(config=FAST, n_workers=2)
        with pytest.raises(ConfigurationError):
            runner.run([], [repro.no_res])
        with pytest.raises(ConfigurationError):
            runner.run([smoke_scenario], [])


def _raising_factory():
    raise ValueError("factory exploded")


class TestTaskConstruction:
    def test_make_cell_task_derives_seed_and_key(self, smoke_scenario):
        task = make_cell_task(0, smoke_scenario, repro.no_res(), None, FAST)
        assert task.config.seed == derive_cell_seed(FAST.seed, task.cell_id)
        assert task.cache_key is not None
        assert task.cell_id == "smoke#7|NoRes|RoundRobin"

    def test_observer_config_disables_caching(self, smoke_scenario):
        config = SimulationConfig(
            strict=False, instrumentation=Instrumentation(observers=(EventLog(),))
        )
        task = make_cell_task(0, smoke_scenario, repro.no_res(), None, config)
        assert task.cache_key is None
