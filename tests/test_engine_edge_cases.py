"""Engine edge cases: multiple VPMs, sampling intervals, OS routing,
restart-overhead arrivals racing other events, and pathological inputs.
"""

import pytest

import repro
from repro.core.overheads import RestartOverhead
from repro.core.policies import RescheduleSuspendedAndWaiting
from repro.core.selectors import LowestUtilizationSelector
from repro.errors import SimulationError
from repro.faults import FaultConfig, PoolOutage
from repro.simulator.engine import SimulationEngine
from repro.workload.cluster import ClusterSpec

from conftest import make_cluster, make_job, make_pool, make_trace, run_tiny


class TestMultipleVpms:
    def test_jobs_partition_across_vpms(self):
        # two VPMs with independent round-robin cursors still place all jobs
        cluster = make_cluster([("p0", 2), ("p1", 2)])
        jobs = [make_job(i, submit=float(i) * 0.01, runtime=5.0) for i in range(8)]
        result = run_tiny(jobs, cluster=cluster, vpm_count=2)
        assert len(result.records) == 8
        assert all(not r.rejected for r in result.records)

    def test_many_vpms_more_than_jobs(self):
        result = run_tiny([make_job(0)], vpm_count=5)
        assert len(result.records) == 1


class TestSamplingIntervals:
    def test_coarse_interval_fewer_samples(self):
        fine = run_tiny([make_job(0, runtime=100.0)], sample_interval=1.0)
        coarse = run_tiny([make_job(0, runtime=100.0)], sample_interval=10.0)
        assert len(coarse.samples) < len(fine.samples)
        assert coarse.samples[1].minute - coarse.samples[0].minute == 10.0

    def test_fractional_interval(self):
        result = run_tiny([make_job(0, runtime=2.0)], sample_interval=0.5)
        minutes = [s.minute for s in result.samples]
        assert minutes[1] - minutes[0] == 0.5


class TestOsRouting:
    def make_mixed_cluster(self):
        return ClusterSpec(
            [
                make_pool("linux-pool", 2, os_family="linux"),
                make_pool("win-pool", 2, os_family="windows"),
            ]
        )

    def test_windows_jobs_land_on_windows_pools(self):
        cluster = self.make_mixed_cluster()
        jobs = [
            make_job(0, os_family="windows", runtime=5.0),
            make_job(1, os_family="linux", runtime=5.0),
        ]
        result = run_tiny(jobs, cluster=cluster)
        assert result.record_by_id(0).pools_visited == ("win-pool",)
        assert result.record_by_id(1).pools_visited == ("linux-pool",)

    def test_selector_never_targets_ineligible_pool(self):
        # a windows victim's only alternate is a linux pool -> must stay
        cluster = ClusterSpec(
            [
                make_pool("win-pool", 1, cores=1, os_family="windows"),
                make_pool("linux-pool", 1, cores=1, os_family="linux"),
            ]
        )
        jobs = [
            make_job(0, os_family="windows", runtime=10.0, priority=0),
            make_job(1, submit=4.0, os_family="windows", runtime=6.0, priority=100),
        ]
        result = run_tiny(jobs, cluster=cluster, policy=repro.res_sus_rand())
        victim = result.record_by_id(0)
        assert victim.restart_count == 0
        assert victim.pools_visited == ("win-pool",)


class TestOverheadRaces:
    def test_in_transit_job_finishes_after_late_arrival(self):
        # the restarted job's arrival event lands after other traffic
        cluster = ClusterSpec(
            [make_pool("p0", 1, cores=1), make_pool("p1", 1, cores=1)]
        )
        policy = RescheduleSuspendedAndWaiting(
            LowestUtilizationSelector(), wait_threshold=5.0
        )
        jobs = [
            make_job(0, submit=0.0, runtime=20.0, priority=0,
                     candidate_pools=("p0", "p1")),
            make_job(1, submit=2.0, runtime=30.0, priority=100,
                     candidate_pools=("p0",)),
            make_job(2, submit=3.0, runtime=4.0, priority=0,
                     candidate_pools=("p1",)),
        ]
        result = run_tiny(
            jobs,
            cluster=cluster,
            policy=policy,
            restart_overhead=RestartOverhead(fixed_minutes=10.0),
        )
        victim = result.record_by_id(0)
        # suspended at 2, in transit until 12; job 2 used p1 from 3-7;
        # the victim restarts on p1 at 12 and runs its full 20 minutes.
        assert victim.restart_count == 1
        assert victim.finish_minute == pytest.approx(32.0)

    def test_wait_timer_spans_transit(self):
        # a job moved into a busy pool re-arms its timer there
        cluster = ClusterSpec(
            [make_pool("p0", 1, cores=1), make_pool("p1", 1, cores=1)]
        )
        policy = RescheduleSuspendedAndWaiting(
            LowestUtilizationSelector(guard=False), wait_threshold=5.0
        )
        jobs = [
            make_job(0, submit=0.0, runtime=100.0, candidate_pools=("p0",)),
            make_job(1, submit=0.0, runtime=100.0, candidate_pools=("p1",)),
            make_job(2, submit=1.0, runtime=10.0, candidate_pools=("p0", "p1")),
        ]
        result = run_tiny(jobs, cluster=cluster, policy=policy)
        mover = result.record_by_id(2)
        # both pools stay busy until 100; the job ping-pongs between
        # the queues (a move every threshold) until one frees.
        assert mover.waiting_move_count >= 2
        assert mover.finish_minute == pytest.approx(110.0)


class TestPathologicalInputs:
    def test_zero_core_cluster_impossible(self):
        # machines always have >= 1 core; a 1-core cluster still works
        cluster = ClusterSpec([make_pool("p0", 1, cores=1)])
        result = run_tiny([make_job(i, runtime=1.0) for i in range(5)], cluster=cluster)
        assert len(result.records) == 5

    def test_simultaneous_submissions(self):
        cluster = ClusterSpec([make_pool("p0", 1, cores=4)])
        jobs = [make_job(i, submit=1.0, runtime=5.0) for i in range(4)]
        result = run_tiny(jobs, cluster=cluster)
        assert all(r.finish_minute == 6.0 for r in result.records)

    def test_job_larger_than_any_machine_rejected(self):
        result = run_tiny([make_job(0, cores=64)], strict=False)
        assert result.records[0].rejected

    def test_all_rejected_fault_run_still_samples_minute_zero(self):
        # Fault runs stop once every job is settled; a run whose only job
        # is rejected at minute 0 must still take its minute-0 tick.
        outage = FaultConfig(pool_outages=(PoolOutage("p0", 0.0, 1.0),))
        cluster = ClusterSpec([make_pool("p0", 1, cores=2)])
        for faults in (FaultConfig(), outage):
            result = run_tiny(
                [make_job(0, cores=4)], cluster=cluster, strict=False,
                sample_interval=0.5, faults=faults,
            )
            assert result.records[0].rejected
            assert [s.minute for s in result.samples] == [0.0]

    def test_tiny_runtime(self):
        result = run_tiny([make_job(0, runtime=0.5)])
        assert result.records[0].finish_minute == pytest.approx(0.5)

    def test_engine_rejects_negative_progression(self):
        # directly build an engine and confirm single-use enforcement
        engine = SimulationEngine(make_trace([make_job(0)]), make_cluster())
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()


class TestFinishWithoutRefill:
    """A finish that leaves nothing to resume or start skips the refill,
    yet a signature that failed first fit before it must scan again."""

    def test_skipped_refill_still_invalidates_failed_first_fit(self, monkeypatch):
        from repro.simulator.job import Job, JobState
        from repro.simulator.pool import PhysicalPool, SubmitOutcome

        engine = SimulationEngine([], ClusterSpec([make_pool("p0", 2)]))
        pool = engine.pools["p0"]
        first, second = Job(make_job(1, cores=3)), Job(make_job(2, cores=3))
        for job in (first, second):
            assert pool.submit(job, 0.0).outcome is SubmitOutcome.STARTED
        # Two free cores in the pool, one per machine: the scan fails.
        blocked = Job(make_job(3, cores=2))
        assert pool.submit(blocked, 1.0).outcome is SubmitOutcome.QUEUED
        assert pool._no_first_fit[("linux", 2, 1.0)] == pool._capacity_version
        pool.remove_waiting(blocked, 2.0)

        fills = []
        refill = PhysicalPool.fill_machine

        def spy(self, machine, now):
            fills.append(machine)
            return refill(self, machine, now)

        monkeypatch.setattr(PhysicalPool, "fill_machine", spy)
        engine._outstanding = 1
        engine._on_finish((first, first.epoch), 10.0)
        assert first.state is JobState.FINISHED
        assert fills == []
        later = Job(make_job(4, cores=2))
        result = pool.submit(later, 11.0)
        assert result.outcome is SubmitOutcome.STARTED
        assert result.machine is pool.machines[0]
