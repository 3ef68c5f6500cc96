"""Unit tests for the physical pool manager."""

import pytest

from repro.errors import SchedulingError
from repro.simulator.job import Job, JobState
from repro.simulator.pool import PhysicalPool, SubmitOutcome
from repro.simulator.queues import PriorityWaitQueue

from conftest import make_job, make_pool


def pool(machine_count=2, cores=4, memory=16.0, os_family="linux"):
    return PhysicalPool(
        make_pool("p0", machine_count, cores=cores, memory_gb=memory, os_family=os_family)
    )


def submit(p, job_id=1, now=0.0, **job_kwargs):
    job = Job(make_job(job_id, **job_kwargs))
    return job, p.submit(job, now)


class TestSubmit:
    def test_first_fit_starts_immediately(self):
        p = pool()
        job, result = submit(p)
        assert result.outcome is SubmitOutcome.STARTED
        assert result.machine is p.machines[0]
        assert job.state is JobState.RUNNING
        assert p.busy_cores == 1
        assert p.running_job_count() == 1

    def test_fills_first_machine_first(self):
        p = pool(machine_count=2, cores=2)
        submit(p, 1)
        job, result = submit(p, 2)
        assert result.machine is p.machines[0]
        job, result = submit(p, 3)
        assert result.machine is p.machines[1]

    def test_queues_when_full(self):
        p = pool(machine_count=1, cores=1)
        submit(p, 1)
        job, result = submit(p, 2)
        assert result.outcome is SubmitOutcome.QUEUED
        assert job.state is JobState.WAITING
        assert len(p.wait_queue) == 1

    def test_ineligible_when_no_machine_matches(self):
        p = pool(os_family="linux")
        job, result = submit(p, 1, os_family="windows")
        assert result.outcome is SubmitOutcome.INELIGIBLE
        assert job.state is JobState.PENDING

    def test_preemption_of_lower_priority(self):
        p = pool(machine_count=1, cores=1)
        victim, _ = submit(p, 1, priority=0, runtime=100.0)
        high, result = submit(p, 2, now=5.0, priority=100)
        assert result.outcome is SubmitOutcome.PREEMPTED
        assert result.victims == (victim,)
        assert victim.state is JobState.SUSPENDED
        assert high.state is JobState.RUNNING
        assert victim.job_id in p.suspended
        assert p.running_job_count() == 1

    def test_no_preemption_of_equal_priority(self):
        p = pool(machine_count=1, cores=1)
        submit(p, 1, priority=50)
        job, result = submit(p, 2, priority=50)
        assert result.outcome is SubmitOutcome.QUEUED

    def test_preemption_blocked_by_memory(self):
        p = pool(machine_count=1, cores=4, memory=4.0)
        submit(p, 1, priority=0, cores=4, memory_gb=3.0)
        # suspending the victim frees cores but not its 3GB
        job, result = submit(p, 2, priority=100, cores=1, memory_gb=2.0)
        assert result.outcome is SubmitOutcome.QUEUED

    def test_utilization_and_snapshot(self):
        p = pool(machine_count=2, cores=4)
        submit(p, 1, cores=2)
        assert p.utilization() == pytest.approx(2 / 8)
        snapshot = p.snapshot()
        assert snapshot.busy_cores == 2
        assert snapshot.total_cores == 8
        assert snapshot.waiting_jobs == 0


class TestFillMachine:
    def test_finish_starts_queued_job(self):
        p = pool(machine_count=1, cores=1)
        first, _ = submit(p, 1, runtime=10.0)
        second, _ = submit(p, 2)
        machine = p.finish_job(first, 10.0)
        placed = p.fill_machine(machine, 10.0)
        assert placed == [second]
        assert second.state is JobState.RUNNING
        assert second.total_wait == 10.0

    def test_suspended_resumes_before_waiting_regardless_of_priority(self):
        p = pool(machine_count=1, cores=1)
        victim, _ = submit(p, 1, priority=0, runtime=100.0)
        preemptor, _ = submit(p, 2, priority=100, runtime=10.0)
        waiting_high, _ = submit(p, 3, priority=100)
        machine = p.finish_job(preemptor, 10.0)
        placed = p.fill_machine(machine, 10.0)
        # the resident suspended job resumes first (host-level semantics)
        assert placed[0] is victim
        assert victim.state is JobState.RUNNING
        assert waiting_high.state is JobState.WAITING

    def test_waiting_job_starts_when_no_resumable_fits(self):
        p = pool(machine_count=1, cores=2)
        victim, _ = submit(p, 1, priority=0, cores=2, runtime=100.0)
        preemptor, _ = submit(p, 2, priority=100, cores=2, runtime=10.0)
        small, _ = submit(p, 3, priority=0, cores=1)
        # only one core frees: suspend the preemptor's... here finish it partially:
        # finish preemptor entirely -> victim (2 cores) resumes first instead.
        machine = p.finish_job(preemptor, 10.0)
        placed = p.fill_machine(machine, 10.0)
        assert victim in placed

    def test_fill_respects_eligibility(self):
        p = pool(machine_count=1, cores=2, memory=4.0)
        first, _ = submit(p, 1, cores=2, memory_gb=4.0, runtime=10.0)
        big, _ = submit(p, 2, memory_gb=16.0)  # queued? no - ineligible
        assert big.state is JobState.PENDING
        heavy, _ = submit(p, 3, memory_gb=4.0, cores=2)
        machine = p.finish_job(first, 10.0)
        placed = p.fill_machine(machine, 10.0)
        assert placed == [heavy]

    def test_multiple_placements_one_fill(self):
        p = pool(machine_count=1, cores=4)
        blocker, _ = submit(p, 1, cores=4, runtime=10.0)
        a, _ = submit(p, 2, cores=2)
        b, _ = submit(p, 3, cores=2)
        machine = p.finish_job(blocker, 10.0)
        placed = p.fill_machine(machine, 10.0)
        assert {j.job_id for j in placed} == {2, 3}


@pytest.fixture
def probes(monkeypatch):
    """Counts ``best_schedulable`` calls on every wait queue."""
    calls = []
    original = PriorityWaitQueue.best_schedulable

    def spy(self, fits):
        calls.append(self)
        return original(self, fits)

    monkeypatch.setattr(PriorityWaitQueue, "best_schedulable", spy)
    return calls


class TestFillMachineGuard:
    def test_no_probe_after_machine_fills(self, probes):
        p = pool(machine_count=1, cores=4)
        blocker, _ = submit(p, 1, cores=4, runtime=10.0)
        a, _ = submit(p, 2, cores=2)
        b, _ = submit(p, 3, cores=2)
        c, _ = submit(p, 4, cores=1)
        machine = p.finish_job(blocker, 10.0)
        del probes[:]
        placed = p.fill_machine(machine, 10.0)
        assert placed == [a, b]
        assert machine.free_cores == 0
        # One probe per start; none once the machine is full.
        assert len(probes) == 2
        assert c.state is JobState.WAITING

    def test_full_machine_is_never_probed(self, probes):
        p = pool(machine_count=1, cores=2)
        submit(p, 1, cores=2)
        waiting, _ = submit(p, 2, cores=1)
        del probes[:]
        assert p.fill_machine(p.machines[0], 5.0) == []
        assert probes == []
        assert waiting.state is JobState.WAITING

    def test_resident_suspended_job_resumes_before_queued_work(self, probes):
        p = pool(machine_count=1, cores=4)
        victim, _ = submit(p, 1, priority=0, cores=2, runtime=100.0)
        submit(p, 2, priority=100, cores=2, runtime=100.0)
        preemptor, result = submit(p, 3, now=5.0, priority=100, cores=2, runtime=10.0)
        assert result.victims == (victim,)
        queued, _ = submit(p, 4, now=6.0, priority=100, cores=1)
        assert queued.state is JobState.WAITING
        machine = p.finish_job(preemptor, 15.0)
        del probes[:]
        placed = p.fill_machine(machine, 15.0)
        assert placed == [victim]
        assert victim.state is JobState.RUNNING
        assert queued.state is JobState.WAITING
        # The resumed job used the freed cores; the queue was not probed.
        assert probes == []


    def test_empty_queue_is_never_probed(self, probes):
        p = pool(machine_count=1, cores=4)
        job, _ = submit(p, 1, cores=2)
        machine = p.finish_job(job, 10.0)
        assert len(p.wait_queue) == 0
        assert p.fill_machine(machine, 10.0) == []
        assert probes == []

    def test_no_resumable_scan_without_resident_suspended_jobs(self, monkeypatch):
        scans = []
        original = PhysicalPool._best_resumable

        def spy(self, machine):
            scans.append(machine)
            return original(self, machine)

        monkeypatch.setattr(PhysicalPool, "_best_resumable", spy)
        p = pool(machine_count=1, cores=1)
        first, _ = submit(p, 1)
        queued, _ = submit(p, 2)
        machine = p.finish_job(first, 10.0)
        assert p.fill_machine(machine, 10.0) == [queued]
        assert scans == []


class TestDetach:
    def test_detach_suspended_abandons_and_frees_memory(self):
        p = pool(machine_count=1, cores=1, memory=16.0)
        victim, _ = submit(p, 1, priority=0, memory_gb=8.0, runtime=100.0)
        submit(p, 2, now=5.0, priority=100, memory_gb=8.0)
        machine = p.detach_suspended(victim, 20.0)
        assert victim.state is JobState.PENDING
        assert victim.wasted_restart == 5.0
        assert victim.total_suspend == 15.0
        assert machine.free_memory_gb == 8.0
        assert victim.job_id not in p.suspended

    def test_detach_suspended_requires_suspended(self):
        p = pool()
        job, _ = submit(p, 1)
        with pytest.raises(SchedulingError):
            p.detach_suspended(job, 0.0)

    def test_remove_waiting(self):
        p = pool(machine_count=1, cores=1)
        submit(p, 1)
        waiting, _ = submit(p, 2)
        p.remove_waiting(waiting, 6.0)
        assert waiting.state is JobState.PENDING
        assert waiting.total_wait == 6.0
        assert len(p.wait_queue) == 0

    def test_finish_job_requires_running(self):
        p = pool()
        job = Job(make_job(1))
        with pytest.raises(SchedulingError):
            p.finish_job(job, 0.0)


class TestCancelJob:
    def test_cancel_running(self):
        p = pool()
        job, _ = submit(p, 1)
        machine = p.cancel_job(job, 5.0)
        assert machine is not None
        assert job.state is JobState.FINISHED
        assert p.busy_cores == 0

    def test_cancel_suspended(self):
        p = pool(machine_count=1, cores=1)
        victim, _ = submit(p, 1, priority=0, runtime=50.0)
        submit(p, 2, priority=100)
        machine = p.cancel_job(victim, 5.0)
        assert machine is not None
        assert victim.job_id not in p.suspended

    def test_cancel_waiting(self):
        p = pool(machine_count=1, cores=1)
        submit(p, 1)
        waiting, _ = submit(p, 2)
        assert p.cancel_job(waiting, 5.0) is None
        assert len(p.wait_queue) == 0

    def test_cancel_finished_rejected(self):
        p = pool()
        job, _ = submit(p, 1)
        p.finish_job(job, 1.0)
        with pytest.raises(SchedulingError):
            p.cancel_job(job, 2.0)


class TestInvariants:
    def test_check_invariants_clean(self):
        p = pool(machine_count=2, cores=2)
        submit(p, 1)
        submit(p, 2, priority=100, cores=2)
        p.check_invariants()

    def test_check_invariants_detects_counter_drift(self):
        p = pool()
        submit(p, 1)
        p.busy_cores += 1
        with pytest.raises(SchedulingError):
            p.check_invariants()
