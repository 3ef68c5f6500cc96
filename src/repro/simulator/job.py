"""Runtime job objects: the state machine and its time accounting.

A :class:`Job` wraps an immutable trace record with the mutable state
the engine manipulates.  Every transition takes the current simulated
time and updates the accounting fields from which the paper's metrics
are later computed:

* **wait time** — minutes spent in pool wait queues (component *c1* of
  wasted completion time);
* **suspend time** — minutes spent suspended on a host (*c2*);
* **wasted restart time** — progress thrown away when the job is
  restarted at another pool (*c3*, "wasted time by rescheduling").

State diagram (all transitions validated; illegal ones raise
:class:`~repro.errors.JobStateError`).  The *start* transition is made
by :meth:`repro.simulator.pool.PhysicalPool._start_on`, together with
the machine and pool accounting it implies, so a start is one call; a
running job's *finish* is likewise made by
:meth:`~repro.simulator.pool.PhysicalPool.finish_job`, which repeats
:meth:`Job.finish`'s running branch inline::

    PENDING --start--> RUNNING --finish--> FINISHED
       |                |   ^
       |enqueue         |   |resume
       v                v   |
    WAITING <--.     SUSPENDED --abandon--> PENDING (restart elsewhere)
       |        \\
       '--dequeue (to PENDING, for waiting-job rescheduling)

Progress is measured in *reference-speed minutes*: a job with
``runtime_minutes = 60`` running on a ``speed_factor = 1.2`` machine
accumulates progress at 1.2 per minute and finishes after 50 minutes of
uninterrupted execution.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import JobStateError
from ..workload.trace import TraceJob

__all__ = ["Job", "JobState"]


class JobState(enum.Enum):
    """Lifecycle states of a job inside the simulator."""

    PENDING = "pending"  # submitted / between pools, not yet placed
    WAITING = "waiting"  # in a physical pool's wait queue
    RUNNING = "running"  # executing on a machine
    SUSPENDED = "suspended"  # preempted, resident on its machine
    FINISHED = "finished"  # completed
    REJECTED = "rejected"  # statically ineligible everywhere
    FAILED = "failed"  # exhausted its retry budget (fault injection)


class Job:
    """Mutable runtime state of one job.

    Attributes:
        spec: the immutable :class:`~repro.workload.trace.TraceJob`.
        job_id: the trace job id (shadows carry their own spec's id),
            copied from ``spec`` once so hot paths read a slot.
        priority: the job's priority level, copied from ``spec``.
        state: current :class:`JobState`.
        pool_id: pool currently responsible for the job (waiting,
            running or suspended there), else ``None``.
        machine: the runtime machine the job occupies, else ``None``
            (typed loosely to avoid an import cycle with
            :mod:`repro.simulator.machine`).
        epoch: bumped on every start/suspend/resume/abandon; lets the
            engine ignore stale completion events.
        wait_episode: bumped each time the job enters a wait queue;
            lets the engine ignore stale wait-timeout events.
        progress: reference-speed minutes completed in the current
            attempt.
        is_shadow: True for duplicate attempts spawned by a
            duplication policy; shadows are not reported as jobs of
            their own.
    """

    __slots__ = (
        "spec",
        "job_id",
        "priority",
        "state",
        "pool_id",
        "machine",
        "epoch",
        "wait_episode",
        "progress",
        "fractional_share",
        "total_wait",
        "total_suspend",
        "wasted_restart",
        "suspension_count",
        "restart_count",
        "migration_count",
        "waiting_move_count",
        "machine_failures",
        "transient_failures",
        "pools_visited",
        "first_start_minute",
        "finish_minute",
        "segment_start",
        "is_shadow",
        "shadow_of",
    )

    def __init__(self, spec: TraceJob, *, is_shadow: bool = False) -> None:
        self.spec = spec
        self.job_id: int = spec.job_id
        self.priority: int = spec.priority
        self.state = JobState.PENDING
        self.pool_id: Optional[str] = None
        self.machine = None
        self.epoch = 0
        self.wait_episode = 0
        self.progress = 0.0
        self.fractional_share = 0.0
        self.total_wait = 0.0
        self.total_suspend = 0.0
        self.wasted_restart = 0.0
        self.suspension_count = 0
        self.restart_count = 0
        self.migration_count = 0
        self.waiting_move_count = 0
        self.machine_failures = 0
        self.transient_failures = 0
        self.pools_visited: list = []
        self.first_start_minute: Optional[float] = None
        self.finish_minute: Optional[float] = None
        self.segment_start = spec.submit_minute
        self.is_shadow = is_shadow
        self.shadow_of: Optional[int] = None

    # -- derived quantities --------------------------------------------------

    def remaining_minutes(self) -> float:
        """Reference-speed minutes of work left in the current attempt."""
        remaining = self.spec.runtime_minutes - self.progress
        return remaining if remaining > 0.0 else 0.0

    def was_suspended(self) -> bool:
        """Whether the job was suspended at least once."""
        return self.suspension_count > 0

    def completion_time(self) -> Optional[float]:
        """Finish minus submit, or ``None`` if not finished."""
        if self.finish_minute is None:
            return None
        return self.finish_minute - self.spec.submit_minute

    def wasted_completion_time(self) -> float:
        """The paper's per-job waste: wait + suspend + restart waste."""
        return self.total_wait + self.total_suspend + self.wasted_restart

    # -- transitions -----------------------------------------------------------

    def _require(self, transition: str, *allowed: JobState) -> None:
        if self.state not in allowed:
            raise JobStateError(self.job_id, self.state.value, transition)

    def enqueue(self, pool_id: str, now: float) -> None:
        """Enter ``pool_id``'s wait queue."""
        self._require("enqueue", JobState.PENDING)
        self.state = JobState.WAITING
        self.pool_id = pool_id
        self.wait_episode += 1
        self.segment_start = now

    def dequeue(self, now: float) -> None:
        """Leave the wait queue without starting (waiting-job rescheduling)."""
        self._require("dequeue", JobState.WAITING)
        self.total_wait += now - self.segment_start
        self.state = JobState.PENDING
        self.pool_id = None
        self.wait_episode += 1
        self.waiting_move_count += 1
        self.segment_start = now

    def accrue_progress(self, now: float) -> None:
        """Fold the running segment ``[segment_start, now]`` into progress."""
        self._require("accrue_progress", JobState.RUNNING)
        self.progress += (now - self.segment_start) * self.machine.spec.speed_factor
        self.segment_start = now

    def suspend(self, now: float) -> None:
        """Be preempted: stop running but stay resident on the machine."""
        self._require("suspend", JobState.RUNNING)
        self.accrue_progress(now)
        self.state = JobState.SUSPENDED
        self.epoch += 1
        self.suspension_count += 1
        self.segment_start = now

    def _accrue_fractional(self, now: float) -> None:
        """Fold a fractional-share suspended segment into progress.

        No-op unless a fractional policy granted the suspended job a
        CPU share (see :data:`~repro.core.decisions.Action.FRACTION`),
        so the binary suspend/resume path is arithmetically untouched.
        """
        if self.fractional_share:
            self.progress += (
                (now - self.segment_start)
                * self.fractional_share
                * self.machine.spec.speed_factor
            )
            self.fractional_share = 0.0

    def resume(self, now: float) -> None:
        """Resume execution on the machine the job is resident on."""
        self._require("resume", JobState.SUSPENDED)
        self._accrue_fractional(now)
        self.total_suspend += now - self.segment_start
        self.state = JobState.RUNNING
        self.epoch += 1
        self.segment_start = now

    def abandon(self, now: float) -> None:
        """Give up the current attempt (to restart at another pool).

        All progress made so far becomes wasted-restart time; the job
        returns to PENDING, detached from machine and pool.
        """
        self._require("abandon", JobState.SUSPENDED, JobState.RUNNING)
        if self.state is JobState.RUNNING:
            self.accrue_progress(now)
        else:
            self._accrue_fractional(now)
            self.total_suspend += now - self.segment_start
        self.wasted_restart += self.progress
        self.progress = 0.0
        self.state = JobState.PENDING
        self.machine = None
        self.pool_id = None
        self.epoch += 1
        self.restart_count += 1
        self.segment_start = now

    def checkpoint_detach(self, now: float) -> None:
        """Leave the current attempt *preserving progress* (migration).

        The Condor-checkpoint / VM-migration alternative the paper
        discusses: unlike :meth:`abandon`, completed work survives the
        move, so nothing is added to the wasted-restart account here
        (migration overheads are applied separately by the engine).
        """
        self._require("checkpoint_detach", JobState.SUSPENDED)
        self._accrue_fractional(now)
        self.total_suspend += now - self.segment_start
        self.state = JobState.PENDING
        self.machine = None
        self.pool_id = None
        self.epoch += 1
        self.migration_count += 1
        self.segment_start = now

    def dilate_remaining(self, fraction: float) -> None:
        """Inflate remaining work by ``fraction`` (migration penalty).

        Models the 10-20% performance overhead the paper cites for
        virtualised execution/migration.  The extra work is accounted
        as rescheduling waste: it is time the job spends not advancing
        its original demand.
        """
        if fraction <= 0:
            return
        penalty = self.remaining_minutes() * fraction
        self.progress = max(0.0, self.progress - penalty)
        self.wasted_restart += penalty

    def fail_attempt(self, now: float, *, kind: str) -> float:
        """Lose the current attempt to a fault; returns the progress wasted.

        ``kind`` names the fault: ``"machine"`` (host death or pool
        outage killed a running/suspended attempt), ``"transient"``
        (the job's own execution segment died), or ``"drain"`` (a
        waiting job swept out of a blacked-out pool's queue — no
        progress existed to waste).  Like :meth:`abandon`, lost
        progress is accounted as wasted-restart time; the job returns
        to PENDING for requeue or retry.
        """
        self._require(
            "fail_attempt", JobState.RUNNING, JobState.SUSPENDED, JobState.WAITING
        )
        if self.state is JobState.RUNNING:
            self.accrue_progress(now)
        elif self.state is JobState.SUSPENDED:
            self._accrue_fractional(now)
            self.total_suspend += now - self.segment_start
        else:
            self.total_wait += now - self.segment_start
            self.wait_episode += 1
        wasted = self.progress
        self.wasted_restart += wasted
        self.progress = 0.0
        self.state = JobState.PENDING
        self.machine = None
        self.pool_id = None
        self.epoch += 1
        if kind == "machine":
            self.machine_failures += 1
        elif kind == "transient":
            self.transient_failures += 1
        self.segment_start = now
        return wasted

    def give_up(self, now: float) -> None:
        """Record the job as permanently failed (retry budget exhausted)."""
        self._require("give_up", JobState.PENDING)
        self.state = JobState.FAILED
        self.finish_minute = None
        self.epoch += 1
        self.segment_start = now

    def finish(self, now: float) -> None:
        """Complete successfully.

        Normally only RUNNING jobs finish; a SUSPENDED job may finish
        too when a fractional share let it run out its remaining work
        in place — that caps the suspension episode at the finish time.
        """
        state = self.state
        if state is JobState.SUSPENDED and self.fractional_share:
            self.fractional_share = 0.0
            self.total_suspend += now - self.segment_start
        elif state is not JobState.RUNNING:
            raise JobStateError(self.job_id, state.value, "finish")
        self.progress = self.spec.runtime_minutes
        self.state = JobState.FINISHED
        self.finish_minute = now
        self.epoch += 1
        self.machine = None
        self.segment_start = now

    def reject(self, now: float) -> None:
        """Mark the job statically unschedulable."""
        self._require("reject", JobState.PENDING)
        self.state = JobState.REJECTED
        self.finish_minute = None
        self.segment_start = now

    def cancel(self, now: float) -> None:
        """Tear the job down wherever it is (duplication loser cleanup).

        Progress of the cancelled attempt becomes wasted-restart time,
        mirroring the accounting of restart-based rescheduling.
        """
        if self.state is JobState.RUNNING:
            self.accrue_progress(now)
        elif self.state is JobState.SUSPENDED:
            self._accrue_fractional(now)
            self.total_suspend += now - self.segment_start
        elif self.state is JobState.WAITING:
            self.total_wait += now - self.segment_start
        self.wasted_restart += self.progress
        self.progress = 0.0
        self.state = JobState.FINISHED
        self.machine = None
        self.epoch += 1
        self.segment_start = now

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, state={self.state.value}, pool={self.pool_id}, "
            f"progress={self.progress:.1f}/{self.spec.runtime_minutes:.1f})"
        )
