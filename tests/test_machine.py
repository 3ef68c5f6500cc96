"""Unit tests for the runtime Machine occupancy model.

Jobs start on a machine only through its pool's start transition
(:meth:`PhysicalPool._start_on`), so each test machine is the single
machine of a one-machine pool.
"""

import pytest

from repro.errors import SchedulingError
from repro.simulator.job import Job, JobState
from repro.simulator.pool import PhysicalPool

from conftest import make_job, make_pool


def pool(cores=4, memory=16.0):
    return PhysicalPool(make_pool("p0", 1, cores=cores, memory_gb=memory))


def started(p, job_id=1, cores=1, memory=1.0, priority=0, runtime=10.0):
    job = Job(make_job(job_id, runtime=runtime, cores=cores, memory_gb=memory, priority=priority))
    p._start_on(job, p.machines[0], 0.0)
    return job


class TestPlacement:
    def test_place_allocates(self):
        p = pool()
        m = p.machines[0]
        started(p, cores=2, memory=4.0)
        assert m.free_cores == 2
        assert m.free_memory_gb == 12.0
        assert m.busy_cores == 2

    def test_place_rejects_overflow(self):
        p = pool(cores=2)
        m = p.machines[0]
        started(p, cores=2)
        job = Job(make_job(2, cores=1))
        with pytest.raises(SchedulingError, match="does not fit"):
            p._start_on(job, m, 0.0)
        # The fit check runs before anything changes.
        assert job.state is JobState.PENDING
        assert m.free_cores == 0
        assert p.running_jobs == 1
        p.check_invariants()

    def test_fits_now(self):
        m = pool(cores=2, memory=2.0).machines[0]
        assert m.fits_now(make_job(1, cores=2, memory_gb=2.0))
        assert not m.fits_now(make_job(1, cores=3))
        assert not m.fits_now(make_job(1, memory_gb=3.0))

    def test_can_start_combines_fit_eligibility_and_up(self):
        m = pool(cores=2, memory=2.0).machines[0]
        assert m.can_start(make_job(1, cores=2, memory_gb=2.0))
        assert not m.can_start(make_job(1, cores=3))
        assert not m.can_start(make_job(1, memory_gb=3.0))
        assert not m.can_start(make_job(1, os_family="windows"))
        m.up = False
        assert not m.can_start(make_job(1))

    def test_finish_releases_everything(self):
        p = pool()
        m = p.machines[0]
        job = started(p, cores=2, memory=4.0)
        m.remove(job)
        assert m.free_cores == 4
        assert m.free_memory_gb == 16.0


class TestSuspension:
    def test_suspend_frees_cores_keeps_memory(self):
        p = pool()
        m = p.machines[0]
        job = started(p, cores=2, memory=8.0)
        m.suspend(job)
        assert m.free_cores == 4
        assert m.free_memory_gb == 8.0
        assert job.job_id in m.suspended

    def test_resume_reacquires_cores(self):
        p = pool()
        m = p.machines[0]
        job = started(p, cores=2, memory=8.0)
        job.suspend(0.0)
        m.suspend(job)
        m.resume(job)
        assert m.free_cores == 2
        assert job.job_id in m.running

    def test_resume_requires_free_cores(self):
        p = pool(cores=2)
        m = p.machines[0]
        job = started(p, job_id=1, cores=2)
        job.suspend(0.0)
        m.suspend(job)
        other = started(p, job_id=2, cores=2)
        with pytest.raises(SchedulingError):
            m.resume(job)

    def test_remove_suspended_frees_memory(self):
        p = pool()
        m = p.machines[0]
        job = started(p, cores=1, memory=8.0)
        m.suspend(job)
        m.remove(job)
        assert m.free_memory_gb == 16.0
        assert not m.suspended

    def test_suspend_unknown_job_rejected(self):
        m = pool().machines[0]
        with pytest.raises(SchedulingError):
            m.suspend(Job(make_job(9)))

    def test_remove_unknown_job_rejected(self):
        m = pool().machines[0]
        with pytest.raises(SchedulingError):
            m.remove(Job(make_job(9)))


class TestPreemption:
    def test_preemptible_cores_counts_lower_priority_only(self):
        p = pool(cores=4)
        m = p.machines[0]
        started(p, job_id=1, cores=2, priority=0)
        started(p, job_id=2, cores=1, priority=100)
        assert m.preemptible_cores(50) == 2
        assert m.preemptible_cores(0) == 0

    def test_could_fit_by_preemption_checks_memory(self):
        p = pool(cores=4, memory=4.0)
        m = p.machines[0]
        started(p, job_id=1, cores=4, memory=3.0, priority=0)
        # cores preemptible but memory is held by the victim:
        # only 1GB free for the new job
        assert m.could_fit_by_preemption(make_job(2, cores=1, memory_gb=1.0), 100)
        assert not m.could_fit_by_preemption(make_job(2, cores=1, memory_gb=2.0), 100)

    def test_victims_lowest_priority_then_submission_order(self):
        p = pool(cores=4)
        m = p.machines[0]
        a = started(p, job_id=3, cores=1, priority=10)
        b = started(p, job_id=1, cores=1, priority=0)
        c = started(p, job_id=2, cores=1, priority=0)
        d = started(p, job_id=4, cores=1, priority=50)
        victims = m.preemption_victims(make_job(9, cores=2), 100)
        assert [v.job_id for v in victims] == [1, 2]

    def test_victim_set_is_minimal(self):
        p = pool(cores=4)
        m = p.machines[0]
        started(p, job_id=1, cores=2, priority=0)
        started(p, job_id=2, cores=2, priority=0)
        victims = m.preemption_victims(make_job(9, cores=2), 100)
        assert len(victims) == 1

    def test_no_victims_when_unfittable(self):
        p = pool(cores=4)
        m = p.machines[0]
        started(p, job_id=1, cores=4, priority=100)
        assert m.preemption_victims(make_job(9, cores=1), 50) == []

    def test_no_victims_when_free_cores_sufficient(self):
        p = pool(cores=4)
        m = p.machines[0]
        started(p, job_id=1, cores=1, priority=0)
        # 3 cores free, needs 2 -> no preemption required
        assert m.preemption_victims(make_job(9, cores=2), 100) == []


class TestInvariants:
    def test_check_invariants_passes_on_consistent_state(self):
        p = pool()
        m = p.machines[0]
        job = started(p, cores=2, memory=4.0)
        m.check_invariants()
        job.suspend(0.0)
        m.suspend(job)
        m.check_invariants()

    def test_check_invariants_detects_drift(self):
        p = pool()
        m = p.machines[0]
        started(p, cores=2)
        m.free_cores = 4  # corrupt
        with pytest.raises(SchedulingError):
            m.check_invariants()
