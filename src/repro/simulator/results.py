"""Simulation outputs: per-job records and sampled state.

Mirrors ASCA's output design: the simulator "samples at each minute the
current states of all NetBatch components ... as well as the jobs'
resource usages, and outputs the results as logs for post-analysis".
Here the "logs" are :class:`JobRecord` and :class:`StateSample`
sequences wrapped in a :class:`SimulationResult`; the post-analysis
lives in :mod:`repro.metrics` and :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["JobRecord", "StateSample", "SimulationResult", "RecordingSink"]


@dataclass(frozen=True)
class JobRecord:
    """Everything the metrics need to know about one completed job.

    Time quantities are minutes.  For jobs executed under a duplication
    policy the record merges the primary and shadow attempts (waits and
    waste add up; the finish time is the winner's).

    Attributes:
        job_id: trace job id.
        priority: trace priority level.
        submit_minute: submission time.
        finish_minute: completion time (``None`` for rejected jobs).
        runtime_minutes: reference-speed service demand.
        cores: cores the job occupies.
        memory_gb: memory footprint.
        wait_time: total minutes in wait queues (waste component c1).
        suspend_time: total minutes suspended (waste component c2).
        wasted_restart_time: progress discarded by restarts (c3).
        suspension_count: times the job was preempted.
        restart_count: times the job was restarted at another pool
            after a suspension.
        migration_count: times the job was migrated with its progress
            preserved (checkpoint/VM-migration extension).
        waiting_move_count: times the job was moved out of a wait queue
            by waiting-job rescheduling.
        pools_visited: distinct pools the job occupied, in order.
        rejected: True when the job was statically unschedulable.
        task_id: logical task the job belongs to, if any.
        user: submitting user/business group.
        machine_failures: attempts lost to host deaths or pool outages
            (fault injection; 0 without it).
        transient_failures: execution segments lost to transient job
            failures (fault injection; 0 without it).
        failed: True when the job exhausted its retry budget and was
            recorded as a permanent failure (``finish_minute`` is
            ``None``).
    """

    job_id: int
    priority: int
    submit_minute: float
    finish_minute: Optional[float]
    runtime_minutes: float
    cores: int
    memory_gb: float
    wait_time: float
    suspend_time: float
    wasted_restart_time: float
    suspension_count: int
    restart_count: int
    migration_count: int
    waiting_move_count: int
    pools_visited: Tuple[str, ...]
    rejected: bool
    task_id: Optional[int]
    user: str
    machine_failures: int = 0
    transient_failures: int = 0
    failed: bool = False

    @property
    def completion_time(self) -> Optional[float]:
        """Finish minus submit, or ``None`` for rejected jobs."""
        if self.finish_minute is None:
            return None
        return self.finish_minute - self.submit_minute

    @property
    def was_suspended(self) -> bool:
        """Whether the job was preempted at least once."""
        return self.suspension_count > 0

    @property
    def wasted_completion_time(self) -> float:
        """The paper's per-job waste: wait + suspend + restart waste."""
        return self.wait_time + self.suspend_time + self.wasted_restart_time


@dataclass(frozen=True)
class StateSample:
    """One tick of the per-minute state sampler.

    Attributes:
        minute: sample time.
        busy_cores: cores running jobs, summed over pools.
        total_cores: all cores in the cluster (constant, repeated for
            convenience of downstream aggregation).
        running_jobs: jobs executing.
        suspended_jobs: jobs suspended on hosts.
        waiting_jobs: jobs in pool wait queues.
        per_pool_busy: busy cores per pool (in the result's pool order).
        per_pool_waiting: waiting jobs per pool (empty when the run
            predates this field; consumers must handle both).
        per_pool_suspended: suspended jobs per pool (ditto).
    """

    minute: float
    busy_cores: int
    total_cores: int
    running_jobs: int
    suspended_jobs: int
    waiting_jobs: int
    per_pool_busy: Tuple[int, ...]
    per_pool_waiting: Tuple[int, ...] = ()
    per_pool_suspended: Tuple[int, ...] = ()

    @property
    def utilization(self) -> float:
        """Cluster-wide busy fraction, in ``[0, 1]``."""
        if self.total_cores == 0:
            return 0.0
        return self.busy_cores / self.total_cores


class SimulationResult:
    """The complete output of one simulation run."""

    # Class-level fallback so results unpickled from cache entries that
    # predate fault injection still expose the attribute.
    fault_stats = None

    def __init__(
        self,
        records: Sequence[JobRecord],
        samples: Sequence[StateSample],
        pool_ids: Sequence[str],
        policy_name: str,
        scheduler_name: str,
        total_cores: int,
        fault_stats=None,
    ) -> None:
        self._records = tuple(records)
        self._samples = tuple(samples)
        self.pool_ids = tuple(pool_ids)
        self.policy_name = policy_name
        self.scheduler_name = scheduler_name
        self.total_cores = total_cores
        #: The run's :class:`~repro.faults.FaultStats`, or ``None`` when
        #: fault injection was disabled.
        self.fault_stats = fault_stats

    @property
    def records(self) -> Tuple[JobRecord, ...]:
        """Per-job records, in completion order."""
        return self._records

    @property
    def samples(self) -> Tuple[StateSample, ...]:
        """State samples, in time order."""
        return self._samples

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"SimulationResult(policy={self.policy_name}, scheduler={self.scheduler_name}, "
            f"jobs={len(self._records)}, samples={len(self._samples)})"
        )

    # -- convenience accessors used throughout metrics/analysis ------------------

    def completed_records(self) -> Iterator[JobRecord]:
        """Records of jobs that actually finished."""
        return (
            r for r in self._records if not r.rejected and r.finish_minute is not None
        )

    def suspended_records(self) -> Iterator[JobRecord]:
        """Records of completed jobs that were suspended at least once."""
        return (r for r in self.completed_records() if r.was_suspended)

    def failed_records(self) -> Iterator[JobRecord]:
        """Records of jobs that permanently failed (fault injection)."""
        return (r for r in self._records if getattr(r, "failed", False))

    def failed_count(self) -> int:
        """Number of permanently failed jobs."""
        return sum(1 for _ in self.failed_records())

    def rejected_count(self) -> int:
        """Number of statically unschedulable jobs."""
        return sum(1 for r in self._records if r.rejected)

    def record_by_id(self, job_id: int) -> JobRecord:
        """Look up a record by job id (linear; for tests/debugging)."""
        for record in self._records:
            if record.job_id == job_id:
                return record
        raise KeyError(f"no record for job id {job_id}")

    def records_by_user(self) -> Dict[str, List[JobRecord]]:
        """Group completed records by submitting user."""
        grouped: Dict[str, List[JobRecord]] = {}
        for record in self.completed_records():
            grouped.setdefault(record.user, []).append(record)
        return grouped


class RecordingSink:
    """The engine's default result sink: keeps every record and sample.

    ``add_record`` and ``add_sample`` are the bound ``append`` methods of
    plain lists, so recording costs the engine one C call per record.
    :meth:`finalize` wraps both lists in a :class:`SimulationResult`.
    """

    def __init__(self) -> None:
        self.records: List[JobRecord] = []
        self.samples: List[StateSample] = []
        self.add_record = self.records.append
        self.add_sample = self.samples.append

    @property
    def goodput_minutes(self) -> float:
        """Completed reference-speed demand, summed in completion order."""
        return sum(
            r.runtime_minutes
            for r in self.records
            if not r.rejected and r.finish_minute is not None
        )

    def finalize(self, **run) -> SimulationResult:
        """Wrap the kept records and samples with the run's metadata."""
        return SimulationResult(records=self.records, samples=self.samples, **run)
