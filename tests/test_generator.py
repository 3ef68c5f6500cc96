"""Unit tests for repro.workload.generator."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import _trace_fingerprint, stable_hash
from repro.workload import scenarios
from repro.workload.arrivals import BurstProcess
from repro.workload.distributions import RandomStreams
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadModel,
    default_burst_runtime_model,
    default_runtime_model,
    generate_trace,
)
from repro.workload.trace import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_MEDIUM


def small_model(**overrides) -> WorkloadModel:
    defaults = dict(
        horizon_minutes=2000.0,
        base_rate=0.5,
        burst=BurstProcess(
            mean_gap=1e9,
            mean_duration=200.0,
            burst_rate=1.0,
            first_burst_start=500.0,
            first_burst_duration=200.0,
        ),
        burst_pool_choices=("pool-00", "pool-01", "pool-02"),
        burst_pools_per_burst=2,
    )
    defaults.update(overrides)
    return WorkloadModel(**defaults)


class TestWorkloadModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_model(horizon_minutes=0.0)
        with pytest.raises(ConfigurationError):
            small_model(base_rate=-1.0)
        with pytest.raises(ConfigurationError):
            small_model(medium_priority_fraction=1.5)
        with pytest.raises(ConfigurationError):
            small_model(burst_pools_per_burst=0)
        with pytest.raises(ConfigurationError):
            small_model(burst_pool_choices=())
        with pytest.raises(ConfigurationError):
            small_model(task_size=-1)
        with pytest.raises(ConfigurationError):
            small_model(low_priority=100, medium_priority=50, high_priority=0)
        with pytest.raises(ConfigurationError):
            small_model(group_pool_sets=())
        with pytest.raises(ConfigurationError):
            small_model(group_pool_sets=((),))

    def test_expected_job_count(self):
        model = small_model()
        expected = model.expected_job_count()
        assert expected > model.base_rate * model.horizon_minutes


class TestWorkloadGenerator:
    def test_deterministic_given_seed(self):
        model = small_model()
        a = generate_trace(model, seed=3)
        b = generate_trace(model, seed=3)
        assert a == b

    def test_different_seed_different_trace(self):
        model = small_model()
        assert generate_trace(model, seed=3) != generate_trace(model, seed=4)

    def test_job_count_near_expectation(self):
        model = small_model()
        trace = generate_trace(model, seed=1)
        assert abs(len(trace) - model.expected_job_count()) < 150

    def test_priorities_present(self):
        trace = generate_trace(small_model(), seed=1)
        priorities = {j.priority for j in trace}
        assert PRIORITY_LOW in priorities
        assert PRIORITY_HIGH in priorities
        assert PRIORITY_MEDIUM in priorities

    def test_burst_jobs_pinned_to_choice_pools(self):
        model = small_model()
        trace = generate_trace(model, seed=1)
        for job in trace:
            if job.priority == PRIORITY_HIGH:
                assert job.candidate_pools is not None
                assert len(job.candidate_pools) == 2
                assert set(job.candidate_pools) <= set(model.burst_pool_choices)

    def test_burst_jobs_in_burst_window(self):
        trace = generate_trace(small_model(), seed=1)
        for job in trace:
            if job.priority == PRIORITY_HIGH:
                assert 500.0 <= job.submit_minute < 700.0

    def test_medium_fraction_roughly_respected(self):
        trace = generate_trace(small_model(medium_priority_fraction=0.3), seed=1)
        base = [j for j in trace if j.priority != PRIORITY_HIGH]
        medium = [j for j in base if j.priority == PRIORITY_MEDIUM]
        assert 0.2 < len(medium) / len(base) < 0.4

    def test_task_grouping(self):
        trace = generate_trace(small_model(task_size=4), seed=1)
        low = [j for j in trace if j.priority == PRIORITY_LOW]
        with_task = [j for j in low if j.task_id is not None]
        assert with_task, "low-priority jobs should carry task ids"
        counts = {}
        for job in with_task:
            counts[job.task_id] = counts.get(job.task_id, 0) + 1
        # all tasks except possibly the last truncated one have full size
        sizes = sorted(counts.values(), reverse=True)
        assert sizes[0] == 4

    def test_group_pool_sets_restrict_linux_base_jobs(self):
        sets = (("pool-00", "pool-05"), ("pool-01", "pool-06"))
        trace = generate_trace(small_model(group_pool_sets=sets), seed=1)
        base_linux = [
            j
            for j in trace
            if j.priority != PRIORITY_HIGH and j.os_family == "linux"
        ]
        assert base_linux
        for job in base_linux:
            assert job.candidate_pools in sets
            assert job.user.startswith("group-")

    def test_windows_jobs_unrestricted(self):
        sets = (("pool-00",),)
        trace = generate_trace(small_model(group_pool_sets=sets), seed=1)
        windows = [
            j
            for j in trace
            if j.priority != PRIORITY_HIGH and j.os_family == "windows"
        ]
        assert windows
        assert all(j.candidate_pools is None for j in windows)

    def test_runtime_floor(self):
        trace = generate_trace(small_model(), seed=1)
        assert all(j.runtime_minutes >= 0.5 for j in trace)

    def test_business_group_jobs_share_one_user_string(self):
        """Each group's name is built once per trace, not once per job, and
        sharing it leaves both of the trace's content hashes unchanged."""
        trace = scenarios.busy_week(scale=0.05, seed=1).trace
        group_jobs = [j for j in trace if j.user == "group-00"]
        assert len(group_jobs) > 1
        assert all(j.user is group_jobs[0].user for j in group_jobs)
        assert _trace_fingerprint(trace) == (
            "012f8368a5d2fd3bbd5f1e81657c36a2527bf96400332f709cc183b761ca971f"
        )
        assert stable_hash(trace.jobs) == (
            "d73886511edd292826116f10975f0740d8631859427de2a329e40490811dbb2f"
        )

    def test_model_property(self):
        model = small_model()
        generator = WorkloadGenerator(model, RandomStreams(1))
        assert generator.model is model


class TestDefaultModels:
    def test_runtime_model_heavy_tailed(self):
        model = default_runtime_model()
        # mean far above median is the heavy-tail signature
        assert model.mean() > 250.0

    def test_burst_runtime_mean(self):
        model = default_burst_runtime_model()
        assert 100.0 < model.mean() < 400.0
