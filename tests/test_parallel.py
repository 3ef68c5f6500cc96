"""Tests for the parallel experiment execution backend.

Covers the contract the ROADMAP's sweep-style PRs build on:

* serial and parallel grids produce bit-identical summaries;
* per-cell seeds derive from cell identity, not call order, so
  reordering a grid (or running one cell alone) reproduces results;
* pickling-hostile policies transparently fall back to serial
  execution;
* a failing cell names itself and never loses completed cells.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.policies import NoRescheduling
from repro.errors import ConfigurationError, ExperimentExecutionError
from repro.experiments.cache import derive_cell_seed
from repro.experiments.parallel import execute_cells, make_cell_task
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
