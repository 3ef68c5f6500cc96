"""Fault injection: determinism, churn/outage semantics, retry policy."""

import random

import pytest

import repro
from repro.errors import ConfigurationError, UnknownPoolError
from repro.faults import (
    NO_FAULTS,
    FaultConfig,
    MachineChurn,
    PoolOutage,
    RetryPolicy,
)
from repro.metrics.summary import summarize
from repro.simulator.config import SimulationConfig
from repro.workload.distributions import Exponential

from conftest import make_cluster, make_job, run_tiny


def fault_run(scenario, faults, policy=None, **config_kwargs):
    return repro.run_simulation(
        scenario.trace,
        scenario.cluster,
        policy=policy,
        config=SimulationConfig(strict=False, faults=faults, **config_kwargs),
    )


def record_key(r):
    return (
        r.job_id,
        r.finish_minute,
        r.wait_time,
        r.suspend_time,
        r.restart_count,
        r.machine_failures,
        r.transient_failures,
        r.failed,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_minutes=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.5)

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(
            backoff_minutes=10.0,
            backoff_multiplier=2.0,
            max_backoff_minutes=25.0,
            jitter_fraction=0.0,
        )
        rng = random.Random(0)
        assert policy.delay_for(1, rng) == 10.0
        assert policy.delay_for(2, rng) == 20.0
        assert policy.delay_for(3, rng) == 25.0  # capped
        assert policy.delay_for(10, rng) == 25.0

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_minutes=10.0, jitter_fraction=0.1)
        delays = [policy.delay_for(1, random.Random(i)) for i in range(50)]
        assert all(9.0 <= d <= 11.0 for d in delays)
        again = [policy.delay_for(1, random.Random(i)) for i in range(50)]
        assert delays == again


class TestFaultConfig:
    def test_no_faults_is_disabled(self):
        assert not NO_FAULTS.enabled
        assert not FaultConfig().enabled

    def test_any_fault_source_enables(self):
        churn = MachineChurn(mtbf=Exponential(100.0), mttr=Exponential(10.0))
        assert FaultConfig(machine_churn=churn).enabled
        assert FaultConfig(job_failure_probability=0.5).enabled
        assert FaultConfig(
            pool_outages=(PoolOutage("p0", 10.0, 5.0),)
        ).enabled

    def test_with_exponential_churn(self):
        faults = FaultConfig.with_exponential_churn(100.0, 10.0)
        assert faults.enabled
        assert faults.machine_churn is not None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(job_failure_probability=1.5)
        with pytest.raises(ConfigurationError):
            PoolOutage("p0", -1.0, 5.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(faults="not-a-fault-config")

    def test_unknown_outage_pool_raises(self, smoke_scenario):
        faults = FaultConfig(pool_outages=(PoolOutage("no-such-pool", 10.0, 5.0),))
        with pytest.raises(UnknownPoolError):
            fault_run(smoke_scenario, faults)


class TestZeroFaultBitIdentity:
    def test_disabled_faults_do_not_change_results(self, smoke_scenario, smoke_result):
        result = fault_run(smoke_scenario, NO_FAULTS, check_invariants=True)
        assert result.fault_stats is None
        assert [record_key(r) for r in result.records] == [
            record_key(r) for r in smoke_result.records
        ]

    def test_cache_key_unchanged_by_disabled_faults(self, smoke_scenario):
        from repro.experiments.cache import cell_cache_key

        policy = repro.no_res()
        base = cell_cache_key(
            smoke_scenario, policy, None, SimulationConfig(strict=False)
        )
        with_disabled = cell_cache_key(
            smoke_scenario,
            policy,
            None,
            SimulationConfig(strict=False, faults=NO_FAULTS),
        )
        assert base == with_disabled
        enabled = cell_cache_key(
            smoke_scenario,
            policy,
            None,
            SimulationConfig(
                strict=False, faults=FaultConfig.with_exponential_churn(500.0, 60.0)
            ),
        )
        assert enabled != base


class TestMachineChurn:
    @pytest.fixture(scope="class")
    def churn_result(self, smoke_scenario):
        faults = FaultConfig.with_exponential_churn(3000.0, 60.0)
        return fault_run(smoke_scenario, faults, check_invariants=True)

    def test_crashes_happen_and_work_is_lost(self, churn_result):
        stats = churn_result.fault_stats
        assert stats is not None
        assert stats.machine_crashes > 0
        assert stats.machine_recoveries > 0
        assert stats.attempts_killed > 0
        assert stats.lost_work_minutes > 0
        assert 0.0 < stats.goodput_fraction < 1.0

    def test_killed_jobs_still_complete(self, churn_result, smoke_scenario):
        completed = list(churn_result.completed_records())
        assert len(completed) + churn_result.failed_count() + sum(
            1 for r in churn_result.records if r.rejected
        ) == len(smoke_scenario.trace)
        assert any(r.machine_failures > 0 for r in completed)

    def test_deterministic_across_runs(self, smoke_scenario, churn_result):
        again = fault_run(
            smoke_scenario,
            FaultConfig.with_exponential_churn(3000.0, 60.0),
            check_invariants=True,
        )
        assert [record_key(r) for r in again.records] == [
            record_key(r) for r in churn_result.records
        ]
        assert again.fault_stats == churn_result.fault_stats

    def test_rescheduling_policy_also_survives(self, smoke_scenario):
        result = fault_run(
            smoke_scenario,
            FaultConfig.with_exponential_churn(3000.0, 60.0),
            policy=repro.res_sus_util(),
        )
        assert result.fault_stats.machine_crashes > 0
        assert list(result.completed_records())

    def test_fault_stats_render_mentions_counters(self, churn_result):
        text = churn_result.fault_stats.render()
        assert "crash" in text
        assert "lost work" in text


class TestPoolOutage:
    def test_outage_counted_and_jobs_survive(self):
        # One two-pool cluster; p0 blacks out while jobs are running.
        jobs = [make_job(i, submit=float(i), runtime=50.0) for i in range(8)]
        faults = FaultConfig(pool_outages=(PoolOutage("p0", 10.0, 30.0),))
        result = run_tiny(
            jobs,
            cluster=make_cluster((("p0", 2), ("p1", 2))),
            strict=False,
            faults=faults,
        )
        stats = result.fault_stats
        assert stats.pool_outages == 1
        completed = list(result.completed_records())
        assert len(completed) == 8  # outage delays but never loses jobs
        # Work that was in flight on p0 was killed and repeated.
        assert stats.attempts_killed > 0

    def test_jobs_route_around_down_pool(self):
        # The outage covers the whole submission window, so every job
        # must land on p1 (statically eligible on both).
        jobs = [make_job(i, submit=float(i), runtime=5.0) for i in range(4)]
        faults = FaultConfig(pool_outages=(PoolOutage("p0", 0.0, 500.0),))
        result = run_tiny(
            jobs,
            cluster=make_cluster((("p0", 2), ("p1", 2))),
            strict=False,
            faults=faults,
        )
        completed = list(result.completed_records())
        assert len(completed) == 4
        assert {r.pools_visited[-1] for r in completed} == {"p1"}


class TestTransientFailures:
    def test_failures_are_retried_to_completion(self, smoke_scenario):
        faults = FaultConfig(
            job_failure_probability=0.10,
            retry=RetryPolicy(max_attempts=10, backoff_minutes=1.0),
        )
        result = fault_run(smoke_scenario, faults, check_invariants=True)
        stats = result.fault_stats
        assert stats.transient_failures > 0
        assert stats.retries_scheduled > 0
        assert stats.permanent_failures == 0
        assert result.failed_count() == 0

    def test_exhausted_retries_become_permanent_failures(self, smoke_scenario):
        faults = FaultConfig(
            job_failure_probability=1.0,
            retry=RetryPolicy(max_attempts=2, backoff_minutes=1.0),
        )
        result = fault_run(smoke_scenario, faults)
        submitted = [r for r in result.records if not r.rejected]
        assert result.failed_count() == len(submitted)
        assert result.fault_stats.permanent_failures == len(submitted)
        # every job got exactly max_attempts tries
        assert all(r.transient_failures == 2 for r in result.failed_records())
        assert not list(result.completed_records())

    def test_failed_jobs_stay_out_of_summary_completions(self, smoke_scenario):
        faults = FaultConfig(
            job_failure_probability=1.0,
            retry=RetryPolicy(max_attempts=1),
        )
        result = fault_run(smoke_scenario, faults)
        summary = summarize(result)
        assert summary.completed_count == 0
        assert summary.job_count == len(result.records)


class TestFaultTelemetry:
    def test_fault_metrics_exported(self, smoke_scenario):
        registry = repro.MetricsRegistry()
        repro.run_simulation(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            config=SimulationConfig(
                strict=False,
                faults=FaultConfig.with_exponential_churn(3000.0, 60.0),
                instrumentation=repro.Instrumentation(metrics=registry),
            ),
        )
        names = {family.name for family in registry.collect()}
        assert "repro_fault_machine_crashes_total" in names
        assert "repro_fault_lost_work_minutes_total" in names

    def test_no_fault_metrics_without_faults(self, smoke_scenario):
        registry = repro.MetricsRegistry()
        repro.run_simulation(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            config=SimulationConfig(
                strict=False,
                instrumentation=repro.Instrumentation(metrics=registry),
            ),
        )
        names = {family.name for family in registry.collect()}
        assert not any(name.startswith("repro_fault_") for name in names)


class TestFaultSweep:
    def test_sweep_shape_and_render(self):
        from repro.experiments.fault_sweep import fault_sweep

        sweep = fault_sweep(mtbf_minutes=(4000.0,), scale=0.03, seed=11)
        assert len(sweep.cells) == 3  # NoRes + two reschedulers
        assert {c.policy_name for c in sweep.cells} == {
            "NoRes",
            "ResSusUtil",
            "ResSusWaitUtil",
        }
        text = sweep.render()
        assert "MTBF 4000" in text
        assert "ResSusUtil" in text

    def test_sweep_without_samples_matches_sampled_runs(self):
        """The sweep's cells keep their results but record no state
        samples; the same cells run with samples agree on everything the
        sweep reads."""
        from dataclasses import replace

        from repro.experiments.cache import stable_hash
        from repro.experiments.fault_sweep import fault_sweep, fault_sweep_experiment
        from repro.workload.scenarios import high_load

        sweep = fault_sweep(mtbf_minutes=(4000.0,), scale=0.03, seed=11)
        tasks = fault_sweep_experiment(mtbf_minutes=(4000.0,)).tasks(scale=0.03, seed=11)
        scenario = high_load(0.03, 11)
        assert len(sweep.cells) == len(tasks)
        for cell, task in zip(sweep.cells, tasks):
            assert task.keep_result and not task.config.record_samples
            full = repro.run_simulation(
                scenario.trace,
                scenario.cluster,
                policy=task.policy,
                initial_scheduler=task.scheduler,
                config=replace(task.config, record_samples=True),
            )
            assert full.samples
            completed = list(full.completed_records())
            suspended = [r.suspend_time for r in completed if r.was_suspended]
            assert cell.policy_name == full.policy_name
            assert stable_hash(cell.summary) == stable_hash(summarize(full))
            assert cell.fault_stats == full.fault_stats
            assert cell.failed_count == full.failed_count()
            assert list(cell.turnaround_cdf.values) == sorted(r.completion_time for r in completed)
            if cell.suspension_cdf is None:
                assert suspended == []
            else:
                assert list(cell.suspension_cdf.values) == sorted(suspended)

    def test_sweep_cells_are_the_preset_grid_cells(self):
        """``repro faults`` and ``run-grid --preset fault-sweep`` run the
        same cells: same ids, same per-cell seeds, same summaries."""
        from repro.experiments.cache import stable_hash
        from repro.experiments.fault_sweep import fault_sweep
        from repro.experiments.parallel import run_grid_parallel
        from repro.fabric.presets import fault_sweep_grid

        ladder = (4000.0, 16000.0)
        sweep = fault_sweep(mtbf_minutes=ladder, scale=0.03, seed=11)
        grid = run_grid_parallel(fault_sweep_grid(scale=0.03, seed=11, mtbf_minutes=ladder))
        assert sweep.mtbf_minutes == ladder
        assert [(c.mtbf_minutes, c.policy_name) for c in sweep.cells] == [
            (mtbf, o.policy_name) for mtbf in ladder for o in grid.outcomes[:3]
        ]
        assert [stable_hash(c.summary) for c in sweep.cells] == [
            stable_hash(o.summary) for o in grid.outcomes
        ]

    def test_sweep_deterministic(self):
        from repro.experiments.fault_sweep import fault_sweep

        a = fault_sweep(mtbf_minutes=(4000.0,), scale=0.03, seed=11)
        b = fault_sweep(mtbf_minutes=(4000.0,), scale=0.03, seed=11)
        assert a.render() == b.render()
