"""Regression tests for the event-loop correctness sweep.

Three bug classes the hot-path overhaul audited:

* stale ``EVENT_WAIT_TIMEOUT`` events revalidating against the wrong
  wait episode after fault churn moved the job between queues;
* stale wait-queue entries of a removed-then-re-pushed job object
  coming back to life (covered at the queue level in test_queues.py;
  here the episode-token audit is pinned at the job level);
* incremental pool/machine counters (busy cores, running-priority
  histograms, the negative first-fit cache) drifting from the ground
  truth under crash/recover churn — ``check_invariants`` recomputes
  all of them from scratch every sample tick and raises on any drift.
"""

import random

import repro
from repro.simulator.job import Job, JobState
from repro.simulator.pool import PhysicalPool
from repro.workload.cluster import ClusterSpec
from repro.workload.distributions import Exponential

from conftest import make_job, make_pool, run_tiny


class TestWaitEpisodeAudit:
    """Every exit from WAITING must bump ``wait_episode``.

    The wait-timeout handler validates ``(state, wait_episode)``
    against the values captured when the timer was armed; if any
    WAITING-exit path failed to bump the episode, a timer armed for an
    earlier wait stint could fire against a later one and move the job
    based on stale information.
    """

    def test_enqueue_dequeue_bumps(self):
        job = Job(make_job(1))
        assert job.wait_episode == 0
        job.enqueue("p0", 0.0)
        assert job.wait_episode == 1
        job.dequeue(5.0)
        assert job.wait_episode == 2

    def test_start_from_waiting_bumps(self):
        # The queued job starts through the pool's refill path once the
        # one-core machine frees up.
        pool = PhysicalPool(make_pool("p0", 1, cores=1))
        blocker = Job(make_job(0))
        pool.submit(blocker, 0.0)
        job = Job(make_job(1))
        pool.submit(job, 0.0)
        assert job.state is JobState.WAITING
        episode = job.wait_episode
        machine = pool.finish_job(blocker, 1.0)
        assert pool.fill_machine(machine, 1.0) == [job]
        assert job.wait_episode == episode + 1

    def test_fault_drain_bumps(self):
        # A pool blackout sweeps waiting jobs out via fail_attempt: the
        # episode must change so timers armed in the dead pool cannot
        # match the job's next wait stint.
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        episode = job.wait_episode
        job.fail_attempt(3.0, kind="drain")
        assert job.state is JobState.PENDING
        assert job.wait_episode == episode + 1
        job.enqueue("p1", 4.0)
        assert job.wait_episode == episode + 2


class TestStaleWaitTimeout:
    def test_outage_moved_job_ignores_stale_timer(self):
        """Timer armed in p0 must not act on the same job waiting in p1.

        Schedule: job 1 queues in p0 behind a long filler at t=0 with a
        10-minute wait timer.  At t=5 an outage drains p0 and the job
        requeues into p1 behind another filler.  The stale p0 timer
        fires at t=10 while the job is WAITING again — in a different
        pool, under a different episode.  Honouring it would count a
        waiting-job move (or crash removing the job from the wrong
        queue); the episode guard must drop it instead.  The p1 wait
        ends at t=20, before any legitimate p1 timer fires.
        """
        cluster = ClusterSpec(
            [make_pool("p0", 1, cores=1), make_pool("p1", 1, cores=1)]
        )
        jobs = [
            make_job(0, submit=0.0, runtime=30.0, candidate_pools=("p0",)),
            make_job(2, submit=0.0, runtime=20.0, candidate_pools=("p1",)),
            make_job(1, submit=1.0, runtime=5.0, candidate_pools=("p0", "p1")),
        ]
        result = run_tiny(
            jobs,
            cluster=cluster,
            policy=repro.res_sus_wait_util(wait_threshold=10.0),
            strict=False,
            faults=repro.FaultConfig(
                pool_outages=(repro.PoolOutage("p0", 5.0, 60.0),),
            ),
        )
        moved = result.record_by_id(1)
        # Requeued by the outage (a fault requeue, not a policy move),
        # then left alone: the stale timer at t=10 was dropped and the
        # job simply ran when p1 freed up at t=20.
        assert moved.waiting_move_count == 0
        assert moved.pools_visited == ("p1",)
        assert moved.finish_minute == 25.0

    def test_rearmed_timer_still_fires_for_current_episode(self):
        """The guard must drop *stale* timers only: a queued job whose
        episode never changed still gets its move when the timer fires.
        """
        cluster = ClusterSpec(
            [make_pool("p0", 1, cores=1), make_pool("p1", 1, cores=1)]
        )
        jobs = [
            make_job(0, submit=0.0, runtime=40.0, candidate_pools=("p0",)),
            make_job(1, submit=1.0, runtime=5.0, candidate_pools=("p0", "p1")),
        ]
        result = run_tiny(
            jobs,
            cluster=cluster,
            policy=repro.res_sus_wait_util(wait_threshold=10.0),
        )
        moved = result.record_by_id(1)
        # Waits in p0 from t=1; the t=11 timer moves it to idle p1.
        assert moved.waiting_move_count == 1
        assert moved.pools_visited == ("p1",)
        assert moved.finish_minute == 16.0


def _churn_jobs(rng, count):
    jobs = []
    for i in range(count):
        jobs.append(
            make_job(
                i,
                submit=round(rng.uniform(0.0, 120.0), 2),
                runtime=round(rng.uniform(2.0, 40.0), 2),
                priority=rng.choice((0, 0, 0, 50, 100)),
                cores=rng.choice((1, 1, 2)),
                memory_gb=rng.choice((1.0, 2.0)),
            )
        )
    return jobs


class TestCountersSurviveChurn:
    """Property test: incremental accounting vs fault churn.

    ``check_invariants=True`` recomputes busy cores, running counts,
    suspended sets, both running-priority histograms, the machine
    minimum-priority bound and the negative first-fit cache from the
    ground truth on every sample tick, so any drift the churn induces
    fails the run loudly.  On top of that the whole run must be
    bit-reproducible.
    """

    def _run(self, seed):
        rng = random.Random(seed)
        cluster = ClusterSpec(
            [make_pool("p0", 2, cores=2), make_pool("p1", 2, cores=2)]
        )
        faults = repro.FaultConfig(
            machine_churn=repro.MachineChurn(
                mtbf=Exponential(90.0), mttr=Exponential(15.0)
            ),
            pool_outages=(
                repro.PoolOutage("p0", 40.0, 10.0),
                repro.PoolOutage("p1", 45.0, 10.0),
                repro.PoolOutage("p0", 47.0, 6.0),  # overlaps the first window
            ),
            job_failure_probability=0.05,
        )
        return run_tiny(
            _churn_jobs(rng, 80),
            cluster=cluster,
            policy=repro.res_sus_wait_util(wait_threshold=8.0),
            strict=False,
            seed=seed,
            faults=faults,
        )

    def test_invariants_hold_across_seeds(self):
        for seed in (1, 7, 23):
            result = self._run(seed)
            assert len(result.records) == 80

    def test_churn_run_is_reproducible(self):
        first = self._run(5)
        second = self._run(5)
        assert [repr(r) for r in first.records] == [
            repr(r) for r in second.records
        ]
        assert first.fault_stats == second.fault_stats
