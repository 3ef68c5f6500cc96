"""Job trace model.

A *trace* is the simulator's only workload input: an immutable,
time-sorted sequence of :class:`TraceJob` records describing "the
complete information of the jobs submitted to the site ... including
computing resource and memory requirements, submission time and
priority" (paper, Section 3.1).

The real NetBatch traces are proprietary; traces here are produced by
:mod:`repro.workload.generator` or loaded from disk via
:mod:`repro.workload.io`.  The container deliberately supports the
slicing operation the paper's evaluation relies on — extracting the
busy-week window of submissions (minutes 76,000–86,080 of the year
trace) — via :meth:`Trace.window`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TraceError

__all__ = ["TraceJob", "Trace", "TraceStats"]

#: Conventional priority levels.  Anything is allowed as long as it is an
#: int; higher values preempt lower ones (paper, Section 2.2).
PRIORITY_LOW = 0
PRIORITY_MEDIUM = 50
PRIORITY_HIGH = 100

_INF = float("inf")
_submit_minute = attrgetter("submit_minute")
_job_id = attrgetter("job_id")


@dataclass(frozen=True, slots=True, init=False)
class TraceJob:
    """One submitted job, as recorded in a NetBatch-style trace.

    Attributes:
        job_id: unique non-negative identifier.
        submit_minute: submission time, in minutes from trace start.
        runtime_minutes: pure service demand at reference machine speed
            (the time the job needs on a ``speed_factor == 1.0`` core,
            exclusive of any waiting or suspension).
        priority: integer priority; higher preempts lower.
        cores: number of cores the job occupies while running.
        memory_gb: resident memory the job holds while running *or
            suspended* (suspension keeps memory allocated on the host).
        os_family: OS requirement; the job is only eligible on machines
            with the same family.
        candidate_pools: optional whitelist of pool ids the job may run
            in.  ``None`` means "any pool".  The paper notes that
            latency-sensitive high-priority jobs "are usually configured
            to only run in specific sets of physical pools".
        task_id: optional logical task grouping (Section 2.2: a task's
            result is useful only once ~all of its jobs complete).
        user: submitting user/business group, for bookkeeping only.
    """

    job_id: int
    submit_minute: float
    runtime_minutes: float
    priority: int = PRIORITY_LOW
    cores: int = 1
    memory_gb: float = 1.0
    os_family: str = "linux"
    candidate_pools: Optional[Tuple[str, ...]] = None
    task_id: Optional[int] = None
    user: str = ""

    def __init__(
        self, job_id: int, submit_minute: float, runtime_minutes: float,
        priority: int = PRIORITY_LOW, cores: int = 1, memory_gb: float = 1.0,
        os_family: str = "linux", candidate_pools: Optional[Tuple[str, ...]] = None,
        task_id: Optional[int] = None, user: str = "",
    ) -> None:
        # The dataclass's frozen __init__ makes one object.__setattr__
        # call per field; the slots' own descriptors set them in half
        # the time.  Generators build one record per job.
        _set_job_id(self, job_id)
        _set_submit_minute(self, submit_minute)
        _set_runtime_minutes(self, runtime_minutes)
        _set_priority(self, priority)
        _set_cores(self, cores)
        _set_memory_gb(self, memory_gb)
        _set_os_family(self, os_family)
        _set_candidate_pools(self, candidate_pools)
        _set_task_id(self, task_id)
        _set_user(self, user)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise TraceError(f"job_id must be >= 0, got {self.job_id}")
        # Chained comparisons against infinity: NaN fails every one.
        if not 0 <= self.submit_minute < _INF:
            raise TraceError(f"job {self.job_id}: submit_minute must be finite and >= 0")
        if not 0 < self.runtime_minutes < _INF:
            raise TraceError(
                f"job {self.job_id}: runtime_minutes must be finite and > 0, got {self.runtime_minutes}"
            )
        if self.cores < 1:
            raise TraceError(f"job {self.job_id}: cores must be >= 1, got {self.cores}")
        if not 0 < self.memory_gb < _INF:
            raise TraceError(f"job {self.job_id}: memory_gb must be finite and > 0, got {self.memory_gb}")
        if self.candidate_pools is not None and len(self.candidate_pools) == 0:
            raise TraceError(f"job {self.job_id}: candidate_pools may not be an empty tuple")

    def __reduce__(self):
        # Pickle positionally through the constructor: smaller and faster
        # than the slotted dataclass's fallback state protocol, and an
        # unpickled job is validated again.
        return type(self), _trace_job_values(self)

    def is_allowed_in(self, pool_id: str) -> bool:
        """Whether this job may run in ``pool_id`` at all."""
        return self.candidate_pools is None or pool_id in self.candidate_pools


#: The field values of a :class:`TraceJob`, read shallowly in field order.
_trace_job_values = attrgetter(*(f.name for f in fields(TraceJob)))

#: Each slot's setter, which bypasses the frozen ``__setattr__``.
(
    _set_job_id, _set_submit_minute, _set_runtime_minutes, _set_priority,
    _set_cores, _set_memory_gb, _set_os_family, _set_candidate_pools,
    _set_task_id, _set_user,
) = (TraceJob.__dict__[f.name].__set__ for f in fields(TraceJob))


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (used in reports and tests)."""

    job_count: int
    horizon_minutes: float
    total_core_minutes: float
    mean_runtime: float
    mean_interarrival: float
    priority_counts: Dict[int, int] = field(default_factory=dict)

    def fraction_with_priority_at_least(self, priority: int) -> float:
        """Fraction of jobs whose priority is >= ``priority``."""
        if self.job_count == 0:
            return 0.0
        matching = sum(c for p, c in self.priority_counts.items() if p >= priority)
        return matching / self.job_count


class Trace:
    """Immutable, time-sorted container of :class:`TraceJob` records.

    Construction validates uniqueness of job ids and sorts by submission
    time (stable, so equal-time jobs keep their given order, matching
    FIFO submission semantics).
    """

    def __init__(self, jobs: Sequence[TraceJob]) -> None:
        ordered = tuple(sorted(jobs, key=_submit_minute))
        if len(set(map(_job_id, ordered))) != len(ordered):
            seen: set = set()
            for job in ordered:
                if job.job_id in seen:
                    raise TraceError(f"duplicate job_id in trace: {job.job_id}")
                seen.add(job.job_id)
        self._jobs: Tuple[TraceJob, ...] = ordered

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[TraceJob]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> TraceJob:
        return self._jobs[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and self._jobs == other._jobs

    def __repr__(self) -> str:
        horizon = self.horizon()
        return f"Trace(jobs={len(self._jobs)}, horizon={horizon:.0f}min)"

    # -- accessors ---------------------------------------------------------

    @property
    def jobs(self) -> Tuple[TraceJob, ...]:
        """The jobs, sorted by submission time."""
        return self._jobs

    def horizon(self) -> float:
        """Submission time of the last job (0 for an empty trace)."""
        return self._jobs[-1].submit_minute if self._jobs else 0.0

    def job_by_id(self, job_id: int) -> TraceJob:
        """Look up a job by id (linear scan; for tests and debugging)."""
        for job in self._jobs:
            if job.job_id == job_id:
                return job
        raise TraceError(f"no job with id {job_id} in trace")

    # -- transformations ---------------------------------------------------

    def window(self, start_minute: float, end_minute: float) -> "Trace":
        """Jobs with ``start_minute <= submit < end_minute``.

        This mirrors the paper's selection of the busy week (submission
        time between minutes 76,000 and 86,080 of the year trace).
        Submission times are preserved, not re-based.
        """
        if end_minute < start_minute:
            raise TraceError(
                f"window end ({end_minute}) must be >= start ({start_minute})"
            )
        return Trace(
            [j for j in self._jobs if start_minute <= j.submit_minute < end_minute]
        )

    def rebased(self) -> "Trace":
        """Shift submission times so the first job submits at minute 0."""
        if not self._jobs:
            return self
        offset = self._jobs[0].submit_minute
        return Trace([replace(j, submit_minute=j.submit_minute - offset) for j in self._jobs])

    def filter(self, predicate) -> "Trace":
        """Jobs for which ``predicate(job)`` is true, as a new trace."""
        return Trace([j for j in self._jobs if predicate(j)])

    def head(self, count: int) -> "Trace":
        """The earliest ``count`` jobs, as a new trace."""
        if count < 0:
            raise TraceError(f"head count must be >= 0, got {count}")
        return Trace(self._jobs[:count])

    # -- statistics ----------------------------------------------------------

    def stats(self) -> TraceStats:
        """Compute :class:`TraceStats` for this trace."""
        if not self._jobs:
            return TraceStats(
                job_count=0,
                horizon_minutes=0.0,
                total_core_minutes=0.0,
                mean_runtime=0.0,
                mean_interarrival=0.0,
            )
        priority_counts: Dict[int, int] = {}
        total_runtime = 0.0
        total_core_minutes = 0.0
        for job in self._jobs:
            priority_counts[job.priority] = priority_counts.get(job.priority, 0) + 1
            total_runtime += job.runtime_minutes
            total_core_minutes += job.runtime_minutes * job.cores
        horizon = self._jobs[-1].submit_minute - self._jobs[0].submit_minute
        mean_interarrival = horizon / (len(self._jobs) - 1) if len(self._jobs) > 1 else 0.0
        return TraceStats(
            job_count=len(self._jobs),
            horizon_minutes=horizon,
            total_core_minutes=total_core_minutes,
            mean_runtime=total_runtime / len(self._jobs),
            mean_interarrival=mean_interarrival,
            priority_counts=priority_counts,
        )

    def offered_load(self, total_cores: int) -> float:
        """Offered load relative to a cluster with ``total_cores`` cores.

        Defined as total core-minutes of demand divided by the
        core-minutes the cluster provides over the trace's span; a value
        around 0.4 corresponds to the paper's ~40% average utilization.
        """
        if total_cores <= 0:
            raise TraceError(f"total_cores must be > 0, got {total_cores}")
        stats = self.stats()
        if stats.horizon_minutes <= 0:
            return 0.0
        return stats.total_core_minutes / (total_cores * stats.horizon_minutes)

    @staticmethod
    def empty() -> "Trace":
        """An empty trace."""
        return Trace([])


# Re-export a sorted list of jobs grouped by task for task-level analysis.
def jobs_by_task(trace: Trace) -> Dict[int, List[TraceJob]]:
    """Group a trace's jobs by ``task_id`` (jobs without one are skipped).

    The paper motivates rescheduling partly through *tasks*: sets of
    jobs whose combined result is only useful when (nearly) all of them
    complete, so one straggling suspended job wastes the whole task's
    work.  Task-level metrics in :mod:`repro.metrics` build on this
    grouping.
    """
    grouped: Dict[int, List[TraceJob]] = {}
    for job in trace:
        if job.task_id is not None:
            grouped.setdefault(job.task_id, []).append(job)
    return grouped
