"""Tests for the result records, SimulationResult accessors and the
virtual pool manager."""

import pickle

import pytest

from repro.core.context import StaticSystemView
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.job import Job
from repro.simulator.pool import PhysicalPool, SubmitOutcome, SubmitResult
from repro.simulator.results import JobRecord, SimulationResult, StateSample
from repro.simulator.virtual_pool import VirtualPoolManager

from conftest import make_job, make_pool


def record(job_id, suspended=False, rejected=False, user="u"):
    return JobRecord(
        job_id=job_id,
        priority=0,
        submit_minute=0.0,
        finish_minute=None if rejected else 10.0,
        runtime_minutes=5.0,
        cores=1,
        memory_gb=1.0,
        wait_time=0.0,
        suspend_time=1.0 if suspended else 0.0,
        wasted_restart_time=0.0,
        suspension_count=1 if suspended else 0,
        restart_count=0,
        migration_count=0,
        waiting_move_count=0,
        pools_visited=("p0",),
        rejected=rejected,
        task_id=None,
        user=user,
    )


#: One record with every field set away from its default; the engine's
#: positional construction order.
FULL_RECORD_ARGS = (
    7, 2, 1.5, 12.25, 8.0, 4, 2.5, 1.0, 0.5, 0.25, 1, 1, 0, 2,
    ("p0", "p1"), False, 3, "alice", 1, 2, False,
)
FULL_RECORD_KWARGS = dict(
    job_id=7, priority=2, submit_minute=1.5, finish_minute=12.25,
    runtime_minutes=8.0, cores=4, memory_gb=2.5, wait_time=1.0,
    suspend_time=0.5, wasted_restart_time=0.25, suspension_count=1,
    restart_count=1, migration_count=0, waiting_move_count=2,
    pools_visited=("p0", "p1"), rejected=False, task_id=3, user="alice",
    machine_failures=1, transient_failures=2, failed=False,
)
FULL_SAMPLE_ARGS = (30.0, 6, 16, 3, 1, 2, (4, 2), (1, 1), (0, 1))


class TestRecordContract:
    """What the result digests, the cache and the metrics rely on.

    ``benchtrack.result_digest`` hashes ``repr(record)``, so the repr
    strings are pinned byte for byte.
    """

    def test_job_record_repr(self):
        assert repr(JobRecord(*FULL_RECORD_ARGS)) == (
            "JobRecord(job_id=7, priority=2, submit_minute=1.5, "
            "finish_minute=12.25, runtime_minutes=8.0, cores=4, memory_gb=2.5, "
            "wait_time=1.0, suspend_time=0.5, wasted_restart_time=0.25, "
            "suspension_count=1, restart_count=1, migration_count=0, "
            "waiting_move_count=2, pools_visited=('p0', 'p1'), rejected=False, "
            "task_id=3, user='alice', machine_failures=1, transient_failures=2, "
            "failed=False)"
        )

    def test_state_sample_repr(self):
        assert repr(StateSample(*FULL_SAMPLE_ARGS)) == (
            "StateSample(minute=30.0, busy_cores=6, total_cores=16, "
            "running_jobs=3, suspended_jobs=1, waiting_jobs=2, "
            "per_pool_busy=(4, 2), per_pool_waiting=(1, 1), "
            "per_pool_suspended=(0, 1))"
        )

    def test_keyword_and_positional_construction_agree(self):
        assert JobRecord(*FULL_RECORD_ARGS) == JobRecord(**FULL_RECORD_KWARGS)
        assert StateSample(*FULL_SAMPLE_ARGS) == StateSample(
            minute=30.0, busy_cores=6, total_cores=16, running_jobs=3,
            suspended_jobs=1, waiting_jobs=2, per_pool_busy=(4, 2),
            per_pool_waiting=(1, 1), per_pool_suspended=(0, 1),
        )

    def test_trailing_defaults(self):
        r = JobRecord(*FULL_RECORD_ARGS[:18])
        assert (r.machine_failures, r.transient_failures, r.failed) == (0, 0, False)
        s = StateSample(*FULL_SAMPLE_ARGS[:7])
        assert s.per_pool_waiting == () and s.per_pool_suspended == ()
        assert SubmitResult(SubmitOutcome.QUEUED) == SubmitResult(
            SubmitOutcome.QUEUED, None, ()
        )

    def test_fields_are_read_only(self):
        r = JobRecord(*FULL_RECORD_ARGS)
        with pytest.raises(AttributeError):
            r.job_id = 8
        with pytest.raises(AttributeError):
            StateSample(*FULL_SAMPLE_ARGS).minute = 1.0
        with pytest.raises(AttributeError):
            SubmitResult(SubmitOutcome.QUEUED).machine = None

    def test_equal_records_hash_equal(self):
        a, b = JobRecord(*FULL_RECORD_ARGS), JobRecord(**FULL_RECORD_KWARGS)
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert hash(StateSample(*FULL_SAMPLE_ARGS)) == hash(
            StateSample(*FULL_SAMPLE_ARGS)
        )

    def test_pickle_round_trip(self):
        for value in (JobRecord(*FULL_RECORD_ARGS), StateSample(*FULL_SAMPLE_ARGS)):
            back = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            assert type(back) is type(value)
            assert back == value and repr(back) == repr(value)

    def test_job_record_properties(self):
        r = JobRecord(*FULL_RECORD_ARGS)
        assert r.completion_time == 12.25 - 1.5
        assert r.was_suspended
        assert r.wasted_completion_time == 1.0 + 0.5 + 0.25
        rejected = record(0, rejected=True)
        assert rejected.completion_time is None
        assert not rejected.was_suspended

    def test_state_sample_utilization(self):
        assert StateSample(*FULL_SAMPLE_ARGS).utilization == 6 / 16
        empty = StateSample(0.0, 0, 0, 0, 0, 0, ())
        assert empty.utilization == 0.0


class TestSimulationResult:
    def make(self):
        return SimulationResult(
            records=[record(0), record(1, suspended=True), record(2, rejected=True)],
            samples=[],
            pool_ids=("p0",),
            policy_name="NoRes",
            scheduler_name="RoundRobin",
            total_cores=4,
        )

    def test_filters(self):
        result = self.make()
        assert len(result) == 3
        assert len(list(result.completed_records())) == 2
        assert len(list(result.suspended_records())) == 1
        assert result.rejected_count() == 1

    def test_record_by_id(self):
        result = self.make()
        assert result.record_by_id(1).suspension_count == 1
        with pytest.raises(KeyError):
            result.record_by_id(99)


class TestVirtualPoolManager:
    def make_vpm(self, pool_count=2, machine_count=1):
        pools = {
            f"p{i}": PhysicalPool(make_pool(f"p{i}", machine_count, cores=1))
            for i in range(pool_count)
        }
        vpm = VirtualPoolManager("vpm-0", RoundRobinScheduler(), pools)
        snapshots = [p.snapshot() for p in pools.values()]
        view = StaticSystemView(now=0.0, snapshots=snapshots)
        return vpm, pools, view

    def test_places_at_first_candidate(self):
        vpm, pools, view = self.make_vpm()
        job = Job(make_job(0))
        result, pool_id = vpm.submit(job, ("p0", "p1"), view, 0.0)
        assert result.outcome is SubmitOutcome.STARTED
        assert pool_id == "p0"

    def test_round_robin_rotates(self):
        vpm, pools, view = self.make_vpm()
        _, first = vpm.submit(Job(make_job(0)), ("p0", "p1"), view, 0.0)
        _, second = vpm.submit(Job(make_job(1)), ("p0", "p1"), view, 0.0)
        assert {first, second} == {"p0", "p1"}

    def test_skips_ineligible_pool(self):
        vpm, pools, view = self.make_vpm()
        # job needs windows; neither pool has it
        job = Job(make_job(0, os_family="windows"))
        result, pool_id = vpm.submit(job, ("p0", "p1"), view, 0.0)
        assert result.outcome is SubmitOutcome.INELIGIBLE
        assert pool_id is None

    def test_empty_candidates(self):
        vpm, pools, view = self.make_vpm()
        result, pool_id = vpm.submit(Job(make_job(0)), (), view, 0.0)
        assert result.outcome is SubmitOutcome.INELIGIBLE
        assert pool_id is None

    def test_busy_pool_queues_rather_than_skips(self):
        vpm, pools, view = self.make_vpm(pool_count=1)
        vpm.submit(Job(make_job(0, runtime=100.0)), ("p0",), view, 0.0)
        result, pool_id = vpm.submit(Job(make_job(1)), ("p0",), view, 0.0)
        assert result.outcome is SubmitOutcome.QUEUED
        assert pool_id == "p0"
