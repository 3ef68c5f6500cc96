"""Unit tests for repro.workload.trace."""

import copy
import dataclasses
import pickle
import weakref

import pytest

from repro.errors import TraceError
from repro.workload.trace import Trace, TraceJob, jobs_by_task

from conftest import make_job


class TestTraceJob:
    def test_defaults(self):
        job = TraceJob(job_id=1, submit_minute=0.0, runtime_minutes=5.0)
        assert job.priority == 0
        assert job.cores == 1
        assert job.candidate_pools is None

    def test_validation(self):
        with pytest.raises(TraceError):
            TraceJob(job_id=-1, submit_minute=0.0, runtime_minutes=1.0)
        with pytest.raises(TraceError):
            TraceJob(job_id=1, submit_minute=-1.0, runtime_minutes=1.0)
        with pytest.raises(TraceError):
            TraceJob(job_id=1, submit_minute=0.0, runtime_minutes=0.0)
        with pytest.raises(TraceError):
            TraceJob(job_id=1, submit_minute=0.0, runtime_minutes=1.0, cores=0)
        with pytest.raises(TraceError):
            TraceJob(job_id=1, submit_minute=0.0, runtime_minutes=1.0, memory_gb=0.0)
        with pytest.raises(TraceError):
            TraceJob(
                job_id=1, submit_minute=0.0, runtime_minutes=1.0, candidate_pools=()
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("submit_minute", float("nan")),
            ("submit_minute", float("inf")),
            ("runtime_minutes", float("nan")),
            ("runtime_minutes", float("inf")),
            ("memory_gb", float("nan")),
            ("memory_gb", float("inf")),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        fields = {"submit_minute": 0.0, "runtime_minutes": 1.0, "memory_gb": 1.0}
        fields[field] = value
        with pytest.raises(TraceError, match=f"{field} must be finite"):
            TraceJob(job_id=1, **fields)

    def test_is_allowed_in(self):
        unrestricted = make_job(1)
        assert unrestricted.is_allowed_in("anything")
        restricted = make_job(2, candidate_pools=("a", "b"))
        assert restricted.is_allowed_in("a")
        assert not restricted.is_allowed_in("c")


class _Reduced:
    """Pickles as the given reduce tuple, to forge a ``TraceJob`` pickle."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


class TestTraceJobContract:
    """The record's value semantics, which slots and a custom reduce must keep."""

    @staticmethod
    def job() -> TraceJob:
        return TraceJob(
            job_id=7,
            submit_minute=1.5,
            runtime_minutes=30.0,
            priority=50,
            cores=2,
            memory_gb=4.0,
            os_family="windows",
            candidate_pools=("p1", "p2"),
            task_id=3,
            user="alice",
        )

    VALUES = (7, 1.5, 30.0, 50, 2, 4.0, "windows", ("p1", "p2"), 3, "alice")

    def test_repr_eq_hash(self):
        job = self.job()
        assert repr(job) == (
            "TraceJob(job_id=7, submit_minute=1.5, runtime_minutes=30.0, priority=50, "
            "cores=2, memory_gb=4.0, os_family='windows', candidate_pools=('p1', 'p2'), "
            "task_id=3, user='alice')"
        )
        assert job == self.job()
        assert job != dataclasses.replace(job, user="bob")
        assert job != self.VALUES
        assert hash(job) == hash(self.VALUES)

    @pytest.mark.parametrize("protocol", [2, 5])
    def test_pickle_round_trip(self, protocol):
        job = self.job()
        back = pickle.loads(pickle.dumps(job, protocol=protocol))
        assert type(back) is TraceJob
        assert back == job
        assert hash(back) == hash(job)

    def test_unpickling_validates_again(self):
        cls, values = self.job().__reduce__()
        assert (cls, values) == (TraceJob, self.VALUES)
        forged = values[:2] + (0,) + values[3:]
        blob = pickle.dumps(_Reduced((cls, forged)))
        with pytest.raises(TraceError, match="runtime_minutes must be finite and > 0"):
            pickle.loads(blob)

    def test_copies_replace_asdict_fields(self):
        job = self.job()
        for duplicate in (copy.copy(job), copy.deepcopy(job)):
            assert type(duplicate) is TraceJob
            assert duplicate == job
        moved = dataclasses.replace(job, cores=4)
        assert moved.cores == 4
        assert dataclasses.replace(moved, cores=2) == job
        with pytest.raises(TraceError):
            dataclasses.replace(job, runtime_minutes=0.0)
        names = [f.name for f in dataclasses.fields(TraceJob)]
        assert names == [
            "job_id", "submit_minute", "runtime_minutes", "priority", "cores",
            "memory_gb", "os_family", "candidate_pools", "task_id", "user",
        ]
        assert dataclasses.asdict(job) == dict(zip(names, self.VALUES))

    def test_frozen(self):
        job = self.job()
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.cores = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del job.user

    def test_positional_keyword_and_default_construction_agree(self):
        assert TraceJob(*self.VALUES) == self.job()
        names = [f.name for f in dataclasses.fields(TraceJob)]
        assert TraceJob(**dict(zip(names, self.VALUES))) == self.job()
        defaults = TraceJob(4, 2.0, 9.0)
        assert defaults == TraceJob(4, 2.0, 9.0, 0, 1, 1.0, "linux", None, None, "")
        assert defaults == TraceJob(job_id=4, submit_minute=2.0, runtime_minutes=9.0)
        with pytest.raises(TypeError):
            TraceJob(4, 2.0)
        with pytest.raises(TypeError):
            TraceJob(4, 2.0, 9.0, colour="red")

    def test_every_copy_keeps_value_repr_and_hash(self):
        job = self.job()
        names = [f.name for f in dataclasses.fields(TraceJob)]
        copies = [
            TraceJob(*(getattr(job, name) for name in names)),
            dataclasses.replace(job),
            copy.copy(job),
            pickle.loads(pickle.dumps(job)),
        ]
        for duplicate in copies:
            assert type(duplicate) is TraceJob
            assert (duplicate, repr(duplicate), hash(duplicate)) == (job, repr(job), hash(job))

    @pytest.mark.parametrize(
        "name", ["job_id", "submit_minute", "runtime_minutes", "priority", "cores",
                 "memory_gb", "os_family", "candidate_pools", "task_id", "user"],
    )
    def test_every_field_is_frozen(self, name):
        job = self.job()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(job, name, getattr(job, name))
        assert job == self.job()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"job_id": -1}, "job_id must be >= 0, got -1"),
            ({"submit_minute": -1.0}, "job 7: submit_minute must be finite and >= 0"),
            ({"runtime_minutes": 0.0}, "job 7: runtime_minutes must be finite and > 0, got 0.0"),
            ({"cores": 0}, "job 7: cores must be >= 1, got 0"),
            ({"memory_gb": -2.0}, "job 7: memory_gb must be finite and > 0, got -2.0"),
            ({"candidate_pools": ()}, "job 7: candidate_pools may not be an empty tuple"),
        ],
    )
    def test_invalid_fields_keep_their_messages(self, changes, message):
        values = dict(zip([f.name for f in dataclasses.fields(TraceJob)], self.VALUES))
        values.update(changes)
        with pytest.raises(TraceError) as raised:
            TraceJob(**values)
        assert str(raised.value) == message
        with pytest.raises(TraceError) as raised:
            TraceJob(*values.values())
        assert str(raised.value) == message

    def test_no_instance_dict(self):
        job = self.job()
        assert not hasattr(job, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(job)


class TestTrace:
    def test_sorts_by_submit_time(self):
        trace = Trace([make_job(1, submit=5.0), make_job(2, submit=1.0)])
        assert [j.job_id for j in trace] == [2, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceError):
            Trace([make_job(1), make_job(1, submit=2.0)])

    def test_duplicate_named_is_the_first_in_submit_order(self):
        # Listed order repeats 7 first; submit order repeats 2 first.
        jobs = [make_job(7, submit=1.0), make_job(7, submit=5.0),
                make_job(2, submit=0.0), make_job(2, submit=2.0)]
        with pytest.raises(TraceError) as raised:
            Trace(jobs)
        assert str(raised.value) == "duplicate job_id in trace: 2"

    def test_window_selects_half_open_interval(self):
        trace = Trace([make_job(i, submit=float(i)) for i in range(10)])
        window = trace.window(3.0, 6.0)
        assert [j.job_id for j in window] == [3, 4, 5]

    def test_window_preserves_submit_times(self):
        trace = Trace([make_job(i, submit=float(i) + 10) for i in range(5)])
        window = trace.window(11.0, 14.0)
        assert window[0].submit_minute == 11.0

    def test_window_validation(self):
        with pytest.raises(TraceError):
            Trace([]).window(5.0, 1.0)

    def test_rebased_shifts_to_zero(self):
        trace = Trace([make_job(1, submit=100.0), make_job(2, submit=150.0)])
        rebased = trace.rebased()
        assert rebased[0].submit_minute == 0.0
        assert rebased[1].submit_minute == 50.0

    def test_rebased_empty_is_noop(self):
        trace = Trace.empty()
        assert trace.rebased() is trace

    def test_filter(self):
        trace = Trace([make_job(i, priority=i % 2) for i in range(6)])
        high = trace.filter(lambda j: j.priority == 1)
        assert len(high) == 3

    def test_head(self):
        trace = Trace([make_job(i, submit=float(i)) for i in range(5)])
        assert len(trace.head(2)) == 2
        with pytest.raises(TraceError):
            trace.head(-1)

    def test_horizon(self):
        assert Trace.empty().horizon() == 0.0
        trace = Trace([make_job(1, submit=3.0), make_job(2, submit=9.0)])
        assert trace.horizon() == 9.0

    def test_job_by_id(self):
        trace = Trace([make_job(7, submit=1.0)])
        assert trace.job_by_id(7).job_id == 7
        with pytest.raises(TraceError):
            trace.job_by_id(8)

    def test_equality(self):
        a = Trace([make_job(1)])
        b = Trace([make_job(1)])
        assert a == b
        assert a != Trace([])


class TestTraceStats:
    def test_empty_trace_stats(self):
        stats = Trace.empty().stats()
        assert stats.job_count == 0
        assert stats.mean_runtime == 0.0

    def test_basic_stats(self):
        trace = Trace(
            [
                make_job(1, submit=0.0, runtime=10.0, cores=2),
                make_job(2, submit=10.0, runtime=30.0, cores=1),
            ]
        )
        stats = trace.stats()
        assert stats.job_count == 2
        assert stats.horizon_minutes == 10.0
        assert stats.mean_runtime == 20.0
        assert stats.total_core_minutes == 50.0
        assert stats.mean_interarrival == 10.0

    def test_priority_fraction(self):
        trace = Trace([make_job(i, priority=100 if i < 2 else 0) for i in range(8)])
        stats = trace.stats()
        assert stats.fraction_with_priority_at_least(100) == 0.25
        assert stats.fraction_with_priority_at_least(0) == 1.0

    def test_offered_load(self):
        trace = Trace(
            [make_job(1, submit=0.0, runtime=50.0), make_job(2, submit=100.0, runtime=50.0)]
        )
        # 100 core-minutes over 100 minutes on 10 cores -> 0.1
        assert trace.offered_load(10) == pytest.approx(0.1)
        with pytest.raises(TraceError):
            trace.offered_load(0)


class TestJobsByTask:
    def test_groups_by_task(self):
        trace = Trace(
            [
                TraceJob(job_id=0, submit_minute=0.0, runtime_minutes=1.0, task_id=1),
                TraceJob(job_id=1, submit_minute=1.0, runtime_minutes=1.0, task_id=1),
                TraceJob(job_id=2, submit_minute=2.0, runtime_minutes=1.0, task_id=2),
                TraceJob(job_id=3, submit_minute=3.0, runtime_minutes=1.0),
            ]
        )
        grouped = jobs_by_task(trace)
        assert sorted(grouped) == [1, 2]
        assert len(grouped[1]) == 2
