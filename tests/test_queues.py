"""Unit tests for the priority wait queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.schedulers.eligibility import machine_eligible
from repro.simulator.job import Job
from repro.simulator.machine import Machine
from repro.simulator.queues import PriorityWaitQueue

from conftest import make_job, make_machine


def job(job_id, priority=0):
    return Job(make_job(job_id, priority=priority))


class TestOrdering:
    def test_pop_highest_priority_first(self):
        q = PriorityWaitQueue()
        q.push(job(1, priority=0))
        q.push(job(2, priority=100))
        q.push(job(3, priority=50))
        assert q.pop().job_id == 2
        assert q.pop().job_id == 3
        assert q.pop().job_id == 1

    def test_fifo_within_priority(self):
        q = PriorityWaitQueue()
        for i in range(5):
            q.push(job(i, priority=10))
        assert [q.pop().job_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_does_not_remove(self):
        q = PriorityWaitQueue()
        q.push(job(1))
        assert q.peek().job_id == 1
        assert len(q) == 1

    def test_peek_empty(self):
        assert PriorityWaitQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            PriorityWaitQueue().pop()


class TestRemoval:
    def test_remove_middle_entry(self):
        q = PriorityWaitQueue()
        jobs = [job(i) for i in range(3)]
        for j in jobs:
            q.push(j)
        q.remove(jobs[1])
        assert len(q) == 2
        assert [q.pop().job_id, q.pop().job_id] == [0, 2]

    def test_remove_absent_raises(self):
        q = PriorityWaitQueue()
        with pytest.raises(SchedulingError):
            q.remove(job(1))

    def test_push_duplicate_raises(self):
        q = PriorityWaitQueue()
        j = job(1)
        q.push(j)
        with pytest.raises(SchedulingError):
            q.push(j)

    def test_contains(self):
        q = PriorityWaitQueue()
        j = job(1)
        assert j not in q
        q.push(j)
        assert j in q

    def test_repush_takes_back_of_line(self):
        # Regression: a removed-then-re-pushed job object must queue at
        # the back of its priority level.  The original single-heap
        # implementation validated entries by job identity alone, so the
        # stale first entry came alive again and the job kept its old
        # FIFO position (queue-jumping ahead of jobs pushed in between).
        q = PriorityWaitQueue()
        a, b, c = job(1), job(2), job(3)
        q.push(a)
        q.push(b)
        q.remove(a)
        q.push(c)
        q.push(a)  # same object, new wait episode
        assert [j.job_id for j in q.iter_jobs()] == [2, 3, 1]
        assert [q.pop().job_id for _ in range(3)] == [2, 3, 1]

    def test_repush_yields_once_in_iter_jobs(self):
        # Regression: with identity-only validation the stale entry also
        # made iter_jobs yield the job twice, which double-removed it
        # during pool drains.
        q = PriorityWaitQueue()
        a = job(1)
        q.push(a)
        q.remove(a)
        q.push(a)
        assert [j.job_id for j in q.iter_jobs()] == [1]
        assert len(q) == 1
        q.remove(a)  # a second remove must now be an error, not a no-op
        with pytest.raises(SchedulingError):
            q.remove(a)

    def test_repush_best_match_uses_new_position(self):
        q = PriorityWaitQueue()
        a, b = job(1), job(2)
        q.push(a)
        q.push(b)
        q.remove(a)
        q.push(a)
        assert q.best_match(lambda j: True) is b
        assert q.best_schedulable(lambda spec: True) is b

    def test_compaction_after_many_removals(self):
        q = PriorityWaitQueue()
        jobs = [job(i) for i in range(100)]
        for j in jobs:
            q.push(j)
        for j in jobs[:90]:
            q.remove(j)
        assert len(q) == 10
        assert q.storage_size < 50  # lazily compacted
        assert [j.job_id for j in q.iter_jobs()] == list(range(90, 100))


class TestBestMatch:
    def test_best_match_respects_priority_and_fifo(self):
        q = PriorityWaitQueue()
        q.push(job(1, priority=0))
        q.push(job(2, priority=100))
        q.push(job(3, priority=100))
        assert q.best_match(lambda j: True).job_id == 2

    def test_best_match_filters(self):
        q = PriorityWaitQueue()
        q.push(job(1, priority=100))
        q.push(job(2, priority=0))
        assert q.best_match(lambda j: j.priority < 50).job_id == 2

    def test_best_match_none(self):
        q = PriorityWaitQueue()
        q.push(job(1))
        assert q.best_match(lambda j: False) is None

    def test_best_match_skips_removed(self):
        q = PriorityWaitQueue()
        a, b = job(1, priority=100), job(2, priority=0)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert q.best_match(lambda j: True).job_id == 2

    def test_iter_jobs_priority_order(self):
        q = PriorityWaitQueue()
        q.push(job(1, priority=0))
        q.push(job(2, priority=100))
        assert [j.job_id for j in q.iter_jobs()] == [2, 1]


class TestBestSchedulable:
    """The sharded fast path must agree with the O(n) best_match scan."""

    def sig_job(self, job_id, priority, cores, memory):
        return Job(make_job(job_id, priority=priority, cores=cores, memory_gb=memory))

    def test_matches_best_match_on_signature_predicates(self):
        import random

        rng = random.Random(1234)
        q = PriorityWaitQueue()
        jobs = []
        for i in range(400):
            j = self.sig_job(
                i,
                priority=rng.choice((0, 50, 100)),
                cores=rng.choice((1, 2, 4)),
                memory=rng.choice((1.0, 4.0, 16.0)),
            )
            jobs.append(j)
            q.push(j)
        for j in rng.sample(jobs, 150):
            q.remove(j)
        for free_cores, free_mem in ((1, 2.0), (2, 8.0), (4, 64.0), (0, 0.0)):
            fits = lambda spec: spec.cores <= free_cores and spec.memory_gb <= free_mem
            fast = q.best_schedulable(fits)
            slow = q.best_match(lambda job_: fits(job_.spec))
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast is slow

    def test_cross_shard_fifo_ordering(self):
        q = PriorityWaitQueue()
        a = self.sig_job(1, priority=10, cores=1, memory=1.0)
        b = self.sig_job(2, priority=10, cores=2, memory=1.0)
        c = self.sig_job(3, priority=10, cores=1, memory=1.0)
        for j in (a, b, c):
            q.push(j)
        # All three fit: the oldest at the shared priority wins, even
        # though a and c share a shard and b sits in another.
        assert q.best_schedulable(lambda spec: True) is a
        q.remove(a)
        assert q.best_schedulable(lambda spec: True) is b

    def test_empty_and_no_fit(self):
        q = PriorityWaitQueue()
        assert q.best_schedulable(lambda spec: True) is None
        q.push(self.sig_job(1, priority=0, cores=4, memory=16.0))
        assert q.best_schedulable(lambda spec: spec.cores <= 2) is None


class TestCheckInvariants:
    def test_passes_with_stale_entries(self):
        q = PriorityWaitQueue()
        a, b = job(1), job(2)
        q.push(a)
        q.push(b)
        q.remove(a)
        q.push(a)  # a's first entry is now stale but stays stored
        assert q.storage_size == 3
        q.check_invariants()

    def test_detects_valid_count_drift(self):
        q = PriorityWaitQueue()
        q.push(job(1))
        (sig,) = q._valid
        q._valid[sig] += 1
        with pytest.raises(SchedulingError, match="valid entries"):
            q.check_invariants()

    def test_detects_member_without_live_entry(self):
        q = PriorityWaitQueue()
        a = job(1)
        q.push(a)
        q.members[a.job_id] = (a, -1)  # token matches no stored entry
        with pytest.raises(SchedulingError):
            q.check_invariants()


_SIGNATURES = [
    ("linux", 1, 1.0),
    ("linux", 2, 4.0),
    ("linux", 4, 8.0),
    ("windows", 1, 1.0),
]

_OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 11)),
    st.tuples(st.just("remove"), st.integers(0, 11)),
    # push + remove the same job ``k`` times: a burst of stale entries,
    # enough to drive a shard over the compaction threshold; "repush"
    # leaves the job queued at its newest position, "churn" leaves it out.
    st.tuples(st.sampled_from(["repush", "churn"]), st.integers(0, 11),
              st.integers(1, 20)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("probe"), st.integers(0, 4), st.sampled_from([0.0, 1.0, 4.0, 8.0])),
    st.tuples(st.just("probe"), st.integers(1, 4), st.sampled_from([1.0, 4.0, 8.0])),
)


class TestShardAccountingProperty:
    """Interleaved push/remove/re-push/pop and machine-fit probes.

    ``best_schedulable`` checks fit on a shard's stored top before it
    validates that top, so stale entries linger longer; the sharded
    answer must still equal the per-job scan, and the lazy-removal
    accounting must hold after every step.
    """

    @given(
        specs=st.lists(
            st.tuples(st.sampled_from([0, 50, 100]), st.sampled_from(_SIGNATURES)),
            min_size=12,
            max_size=12,
        ),
        ops=st.lists(_OPS, max_size=250),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_matches_scan_and_invariants_hold(self, specs, ops):
        jobs = [
            Job(make_job(i, priority=priority, cores=cores, memory_gb=memory,
                         os_family=os_family))
            for i, (priority, (os_family, cores, memory)) in enumerate(specs)
        ]
        machine = Machine(make_machine(cores=4, memory_gb=8.0))

        def fits(spec):
            return (
                machine.free_cores >= spec.cores
                and machine.free_memory_gb >= spec.memory_gb
                and machine_eligible(machine.spec, spec)
            )

        q = PriorityWaitQueue()
        for op in ops:
            if op[0] == "push":
                if jobs[op[1]] not in q:
                    q.push(jobs[op[1]])
            elif op[0] == "remove":
                if jobs[op[1]] in q:
                    q.remove(jobs[op[1]])
            elif op[0] in ("repush", "churn"):
                for _ in range(op[2]):
                    if jobs[op[1]] not in q:
                        q.push(jobs[op[1]])
                    q.remove(jobs[op[1]])
                if op[0] == "repush":
                    q.push(jobs[op[1]])
            elif op[0] == "pop":
                if len(q):
                    expected = q.best_match(lambda j: True)
                    assert q.pop() is expected
            else:
                machine.free_cores, machine.free_memory_gb = op[1], op[2]
                expected = q.best_match(lambda j: fits(j.spec))
                assert q.best_schedulable(fits) is expected
            q.check_invariants()
        assert sorted(j.job_id for j in q.iter_jobs()) == sorted(q.members)
