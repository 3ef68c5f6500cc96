"""Runtime machine: core/memory accounting and occupancy.

Models NetBatch's host-level semantics:

* a **running** job holds cores and memory;
* a **suspended** job releases its cores but keeps its memory resident
  (suspension is SIGSTOP-style, the process image stays on the host) —
  this is precisely why suspended jobs waste resources and why
  rescheduling them away "better utilize[s] system resources";
* consequently, preemption can free cores but never memory, so a
  high-priority job whose memory demand exceeds the host's *free*
  memory cannot be placed there by preemption.

Static eligibility is the plain predicate here; dispatch scans read the
cluster's shared :class:`~repro.workload.cluster.EligibilityIndex`.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import SchedulingError
from ..schedulers.eligibility import machine_eligible
from ..workload.cluster import MachineSpec
from .job import Job, JobState

__all__ = ["Machine"]


class Machine:
    """Mutable occupancy state of one machine."""

    __slots__ = (
        "spec",
        "free_cores",
        "free_memory_gb",
        "running",
        "suspended",
        "up",
        "_running_priorities",
        "_min_running_priority",
    )

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.free_cores = spec.cores
        self.free_memory_gb = spec.memory_gb
        self.running: Dict[int, Job] = {}
        self.suspended: Dict[int, Job] = {}
        # Fault-injection host state.  A down machine stays *statically*
        # eligible (jobs queue for it) but never passes the dynamic
        # checks, mirroring a NetBatch host that dropped out of the pool.
        self.up = True
        # Exact minimum priority among running jobs (inf when idle),
        # backed by a histogram of occupied priority levels.  Traces use
        # a handful of levels, so when the minimum level empties the new
        # minimum comes from a scan over the histogram keys rather than
        # the whole running set.  "new priority <= min" exactly proves
        # preemption impossible, so submit's preemption scan touches
        # only machines that truly hold a lower-priority victim.
        self._running_priorities: Dict[int, int] = {}
        self._min_running_priority = float("inf")

    # -- queries ---------------------------------------------------------------

    @property
    def machine_id(self) -> str:
        """The machine's identifier."""
        return self.spec.machine_id

    @property
    def busy_cores(self) -> int:
        """Cores currently held by running jobs."""
        return self.spec.cores - self.free_cores

    def fits_now(self, job_spec) -> bool:
        """Whether the job could start immediately (dynamic check)."""
        return (
            self.up
            and self.free_cores >= job_spec.cores
            and self.free_memory_gb >= job_spec.memory_gb
        )

    def can_start(self, job_spec) -> bool:
        """Whether the job could start here right now: :meth:`fits_now`
        and static eligibility together, capacity first because it
        rejects more often than the eligibility check."""
        return (
            self.free_cores >= job_spec.cores
            and self.free_memory_gb >= job_spec.memory_gb
            and self.up
            and machine_eligible(self.spec, job_spec)
        )

    def preemptible_cores(self, priority: int) -> int:
        """Cores held by running jobs with priority strictly below ``priority``."""
        return sum(
            job.spec.cores for job in self.running.values() if job.priority < priority
        )

    def could_fit_by_preemption(self, job_spec, priority: int) -> bool:
        """Whether suspending lower-priority work would make the job fit.

        Preemption releases victims' cores but not their memory, so the
        memory check is against *current* free memory.
        """
        if not self.up or self.free_memory_gb < job_spec.memory_gb:
            return False
        return self.free_cores + self.preemptible_cores(priority) >= job_spec.cores

    def preemption_victims(self, job_spec, priority: int) -> List[Job]:
        """Minimal set of lowest-priority running jobs to suspend.

        Victims are taken lowest priority first; within a priority
        level, in submission order.  NetBatch's host-level preemption
        does not consider how much work a victim has completed, so
        neither do we — mid-flight jobs lose real progress when a
        rescheduling policy then restarts them elsewhere, which is
        exactly the waste the paper's ResSusRand results expose.
        Returns an empty list when preemption cannot make the job fit.
        """
        if not self.up or self.free_memory_gb < job_spec.memory_gb:
            return []
        needed = job_spec.cores - self.free_cores
        if needed <= 0:
            return []
        # Single pass over the (small) running set: collect candidates
        # and their total cores together, then sort only on success.
        candidates: List[Job] = []
        freed_limit = 0
        for job in self.running.values():
            if job.spec.priority < priority:
                candidates.append(job)
                freed_limit += job.spec.cores
        if freed_limit < needed:
            return []
        candidates.sort(key=lambda job: (job.spec.priority, job.job_id))
        victims: List[Job] = []
        freed = 0
        for job in candidates:
            victims.append(job)
            freed += job.spec.cores
            if freed >= needed:
                return victims
        return []  # pragma: no cover - guarded by the freed_limit check

    # -- occupancy transitions ---------------------------------------------------
    #
    # A job *starts* here through :meth:`PhysicalPool._start_on`, and a
    # running job *finishes* through :meth:`PhysicalPool.finish_job`:
    # each does the machine, pool and job accounting in one step.

    def _note_running(self, priority: int) -> None:
        """Account one more running job at ``priority``."""
        counts = self._running_priorities
        counts[priority] = counts.get(priority, 0) + 1
        if priority < self._min_running_priority:
            self._min_running_priority = priority

    def _unnote_running(self, priority: int) -> None:
        """Account one less running job at ``priority``."""
        counts = self._running_priorities
        remaining = counts[priority] - 1
        if remaining:
            counts[priority] = remaining
        else:
            del counts[priority]
            if priority == self._min_running_priority:
                self._min_running_priority = (
                    min(counts) if counts else float("inf")
                )

    def suspend(self, job: Job) -> None:
        """Move a running job to the suspended set (cores freed, memory kept)."""
        if job.job_id not in self.running:
            raise SchedulingError(
                f"machine {self.machine_id}: cannot suspend job {job.job_id}: not running here"
            )
        del self.running[job.job_id]
        self.suspended[job.job_id] = job
        self.free_cores += job.spec.cores
        self._unnote_running(job.spec.priority)

    def resume(self, job: Job) -> None:
        """Move a suspended job back to running (cores re-acquired)."""
        if job.job_id not in self.suspended:
            raise SchedulingError(
                f"machine {self.machine_id}: cannot resume job {job.job_id}: not suspended here"
            )
        if self.free_cores < job.spec.cores:
            raise SchedulingError(
                f"machine {self.machine_id}: cannot resume job {job.job_id}: "
                f"only {self.free_cores} cores free"
            )
        del self.suspended[job.job_id]
        self.running[job.job_id] = job
        self.free_cores -= job.spec.cores
        self._note_running(job.spec.priority)

    def remove(self, job: Job) -> None:
        """Detach a job entirely (finish, restart-away, or cancellation)."""
        if job.job_id in self.running:
            del self.running[job.job_id]
            self.free_cores += job.spec.cores
            self.free_memory_gb += job.spec.memory_gb
            self._unnote_running(job.spec.priority)
        elif job.job_id in self.suspended:
            del self.suspended[job.job_id]
            self.free_memory_gb += job.spec.memory_gb
        else:
            raise SchedulingError(
                f"machine {self.machine_id}: cannot remove job {job.job_id}: not present"
            )

    def check_invariants(self) -> None:
        """Raise :class:`SchedulingError` if occupancy accounting drifted."""
        used_cores = sum(j.spec.cores for j in self.running.values())
        used_memory = sum(
            j.spec.memory_gb for j in self.running.values()
        ) + sum(j.spec.memory_gb for j in self.suspended.values())
        if self.free_cores != self.spec.cores - used_cores:
            raise SchedulingError(
                f"machine {self.machine_id}: core accounting drift "
                f"(free={self.free_cores}, expected={self.spec.cores - used_cores})"
            )
        if abs(self.free_memory_gb - (self.spec.memory_gb - used_memory)) > 1e-6:
            raise SchedulingError(
                f"machine {self.machine_id}: memory accounting drift "
                f"(free={self.free_memory_gb}, expected={self.spec.memory_gb - used_memory})"
            )
        for job in self.running.values():
            if job.state is not JobState.RUNNING:
                raise SchedulingError(
                    f"machine {self.machine_id}: job {job.job_id} in running set "
                    f"but state is {job.state.value}"
                )
        for job in self.suspended.values():
            if job.state is not JobState.SUSPENDED:
                raise SchedulingError(
                    f"machine {self.machine_id}: job {job.job_id} in suspended set "
                    f"but state is {job.state.value}"
                )
        if not self.up and (self.running or self.suspended):
            raise SchedulingError(
                f"machine {self.machine_id}: down but still occupied"
            )
        actual_counts: Dict[int, int] = {}
        for job in self.running.values():
            p = job.spec.priority
            actual_counts[p] = actual_counts.get(p, 0) + 1
        if self._running_priorities != actual_counts:
            raise SchedulingError(
                f"machine {self.machine_id}: running-priority histogram drift "
                f"(tracked={self._running_priorities}, actual={actual_counts})"
            )
        actual_min = min(actual_counts) if actual_counts else float("inf")
        if self._min_running_priority != actual_min:
            raise SchedulingError(
                f"machine {self.machine_id}: running-priority minimum drifted "
                f"(tracked={self._min_running_priority}, actual={actual_min})"
            )

    def __repr__(self) -> str:
        return (
            f"Machine({self.machine_id}, free={self.free_cores}/{self.spec.cores}c, "
            f"running={len(self.running)}, suspended={len(self.suspended)})"
        )
