"""Unit tests for the Job state machine and its accounting.

The *start* transition belongs to the pool
(:meth:`PhysicalPool._start_on`), so tests start jobs through a
one-machine pool.
"""

import pytest

from repro.errors import JobStateError
from repro.simulator.job import Job, JobState
from repro.simulator.pool import PhysicalPool

from conftest import make_job, make_pool


def one_machine_pool(pool_id="p0", speed=1.0):
    return PhysicalPool(make_pool(pool_id, 1, speed_factor=speed))


def running_job(runtime=10.0, speed=1.0, start=0.0):
    pool = one_machine_pool(speed=speed)
    job = Job(make_job(1, submit=0.0, runtime=runtime))
    pool._start_on(job, pool.machines[0], start)
    return job, pool


class TestLifecycle:
    def test_initial_state(self):
        job = Job(make_job(1, submit=5.0))
        assert job.state is JobState.PENDING
        assert job.segment_start == 5.0
        assert job.remaining_minutes() == 10.0

    def test_straight_run_accounting(self):
        job, _ = running_job(runtime=10.0)
        job.finish(10.0)
        assert job.state is JobState.FINISHED
        assert job.completion_time() == 10.0
        assert job.total_wait == 0.0
        assert job.total_suspend == 0.0
        assert job.wasted_completion_time() == 0.0

    def test_wait_then_run(self):
        job = Job(make_job(1, submit=0.0, runtime=10.0))
        job.enqueue("p0", 0.0)
        assert job.state is JobState.WAITING
        pool = one_machine_pool()
        pool._start_on(job, pool.machines[0], 7.0)
        assert job.total_wait == 7.0
        job.finish(17.0)
        assert job.wasted_completion_time() == 7.0

    def test_suspend_resume_accounting(self):
        job, _ = running_job(runtime=10.0)
        job.suspend(4.0)
        assert job.state is JobState.SUSPENDED
        assert job.progress == 4.0
        assert job.suspension_count == 1
        job.resume(9.0)
        assert job.total_suspend == 5.0
        assert job.remaining_minutes() == 6.0
        job.finish(15.0)
        assert job.completion_time() == 15.0
        assert job.was_suspended()

    def test_speed_factor_scales_progress(self):
        job, _ = running_job(runtime=12.0, speed=2.0)
        job.suspend(3.0)
        assert job.progress == 6.0
        assert job.remaining_minutes() == 6.0

    def test_abandon_discards_progress(self):
        job, _ = running_job(runtime=10.0)
        job.suspend(4.0)
        job.abandon(6.0)
        assert job.state is JobState.PENDING
        assert job.progress == 0.0
        assert job.wasted_restart == 4.0
        assert job.total_suspend == 2.0
        assert job.restart_count == 1
        assert job.machine is None
        assert job.pool_id is None

    def test_abandon_from_running(self):
        job, _ = running_job(runtime=10.0)
        job.abandon(3.0)
        assert job.wasted_restart == 3.0
        assert job.state is JobState.PENDING

    def test_dequeue_counts_wait_and_move(self):
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        job.dequeue(12.0)
        assert job.total_wait == 12.0
        assert job.waiting_move_count == 1
        assert job.state is JobState.PENDING

    def test_epoch_bumps_on_every_transition(self):
        job = Job(make_job(1, runtime=10.0))
        pool = one_machine_pool()
        epochs = [job.epoch]
        pool._start_on(job, pool.machines[0], 0.0)
        epochs.append(job.epoch)
        job.suspend(1.0)
        epochs.append(job.epoch)
        job.resume(2.0)
        epochs.append(job.epoch)
        job.finish(11.0)
        epochs.append(job.epoch)
        assert epochs == sorted(set(epochs))

    def test_wait_episode_bumps(self):
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        first = job.wait_episode
        job.dequeue(1.0)
        job.enqueue("p1", 1.0)
        assert job.wait_episode > first

    def test_pools_visited_deduplicated(self):
        job = Job(make_job(1, runtime=100.0))
        p0 = one_machine_pool("p0")
        p0._start_on(job, p0.machines[0], 0.0)
        p0._suspend_on(job, p0.machines[0], 1.0)
        p0.detach_suspended(job, 2.0)
        p1 = one_machine_pool("p1")
        p1._start_on(job, p1.machines[0], 2.0)
        assert job.pools_visited == ["p0", "p1"]
        # Records take the list as it is, so a return visit adds nothing.
        p1._suspend_on(job, p1.machines[0], 3.0)
        p1.detach_suspended(job, 4.0)
        p0._start_on(job, p0.machines[0], 4.0)
        assert job.pools_visited == ["p0", "p1"]

    def test_reject(self):
        job = Job(make_job(1))
        job.reject(0.0)
        assert job.state is JobState.REJECTED
        assert job.completion_time() is None

    def test_cancel_from_each_state(self):
        # waiting
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        job.cancel(5.0)
        assert job.state is JobState.FINISHED
        assert job.total_wait == 5.0
        # running
        job2, _ = running_job(runtime=10.0)
        job2.cancel(4.0)
        assert job2.wasted_restart == 4.0
        # suspended
        job3, _ = running_job(runtime=10.0)
        job3.suspend(2.0)
        job3.cancel(6.0)
        assert job3.total_suspend == 4.0
        assert job3.wasted_restart == 2.0


class TestIllegalTransitions:
    def test_cannot_finish_from_pending(self):
        job = Job(make_job(1))
        with pytest.raises(JobStateError):
            job.finish(1.0)

    def test_cannot_suspend_waiting_job(self):
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        with pytest.raises(JobStateError):
            job.suspend(1.0)

    def test_cannot_resume_running_job(self):
        job, _ = running_job()
        with pytest.raises(JobStateError):
            job.resume(1.0)

    def test_cannot_start_running_job(self):
        job, pool = running_job()
        machine = pool.machines[0]
        with pytest.raises(JobStateError) as excinfo:
            pool._start_on(job, machine, 1.0)
        assert excinfo.value.attempted == "start"
        assert excinfo.value.current == "running"
        # The state check runs before anything changes.
        assert machine.free_cores == machine.spec.cores - 1
        assert job.epoch == 1
        pool.check_invariants()

    def test_cannot_enqueue_twice(self):
        job = Job(make_job(1))
        job.enqueue("p0", 0.0)
        with pytest.raises(JobStateError):
            job.enqueue("p1", 1.0)

    def test_error_carries_context(self):
        job = Job(make_job(42))
        try:
            job.finish(0.0)
        except JobStateError as exc:
            assert exc.job_id == 42
            assert exc.current == "pending"
            assert exc.attempted == "finish"
