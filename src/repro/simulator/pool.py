"""The physical pool manager.

Implements the dispatch semantics of Section 2.1 at the level of one
pool:

* **First-fit dispatch** — "the pool manager searches its list to find
  the first eligible machine (i.e., which satisfies the job
  requirements) that is available and schedules the job there".
* **Priority preemption** — "if there is a job currently running on an
  eligible machine that has lower priority than the new job, this
  currently running job will be suspended by the new job".
* **Queueing** — "otherwise, the new job will be queued and waiting for
  resources to become available in the physical pool".
* **Give-back** — "if none of the machines in the list is eligible, the
  physical pool manager will return the new job to the virtual pool
  manager".

The pool mutates machines and jobs but never talks to the event queue
or to policies; the engine orchestrates those.  All capacity-releasing
paths report which machines freed up so the engine can re-fill them.
Static eligibility comes from the cluster's shared
:class:`~repro.workload.cluster.EligibilityIndex`; per signature, a pool
keeps only its run's eligible machines and negative first-fit cache.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.context import PoolSnapshot
from ..errors import JobStateError, SchedulingError
from ..workload.cluster import EligibilityIndex, PoolSpec
from .job import Job, JobState
from .machine import Machine
from .queues import PriorityWaitQueue

_INF = float("inf")

__all__ = ["PhysicalPool", "SubmitOutcome", "SubmitResult"]


class SubmitOutcome(enum.Enum):
    """What happened when a job arrived at a pool."""

    STARTED = "started"  # placed on a free machine immediately
    PREEMPTED = "preempted"  # placed by suspending lower-priority work
    QUEUED = "queued"  # eligible machines exist, none available
    INELIGIBLE = "ineligible"  # no machine can ever run this job


class SubmitResult(NamedTuple):
    """Outcome of :meth:`PhysicalPool.submit`.

    Attributes:
        outcome: what happened.
        machine: machine the job started on, when it started.
        victims: jobs suspended to make room (``PREEMPTED`` only); the
            engine passes each to the rescheduling policy.
    """

    outcome: SubmitOutcome
    machine: Optional[Machine] = None
    victims: Tuple[Job, ...] = ()


#: The two machine-less outcomes carry no per-call data, so every
#: submission that queues or is given back shares one result object.
_QUEUED = SubmitResult(SubmitOutcome.QUEUED)
_INELIGIBLE = SubmitResult(SubmitOutcome.INELIGIBLE)


class PhysicalPool:
    """Runtime state and dispatch logic of one physical pool.

    ``eligibility`` is the cluster's
    :class:`~repro.workload.cluster.EligibilityIndex` (a one-pool index
    of ``spec`` when omitted).  Nothing here times wait or suspension
    episodes: observers derive them from the engine's event stream.
    """

    def __init__(self, spec: PoolSpec, eligibility=None) -> None:
        self.spec = spec
        #: The pool's identifier (a copy of ``spec.pool_id``).
        self.pool_id: str = spec.pool_id
        self.machines: List[Machine] = [Machine(m) for m in spec.machines]
        self.wait_queue = PriorityWaitQueue()
        self.suspended: Dict[int, Job] = {}
        self.total_cores = spec.total_cores
        self.busy_cores = 0
        self.running_jobs = 0
        # Histogram of running-job priorities (counts may sit at zero).
        # Lets submit prove "nothing in this pool is preemptible by
        # priority p" without scanning any machine; traces use a
        # handful of priority levels.
        self._running_priorities: Dict[int, int] = {}
        self._suspend_order: Dict[int, int] = {}
        self._suspend_counter = 0
        self._index = eligibility if eligibility is not None else EligibilityIndex((spec,))
        # This run's statically eligible machines per signature.
        self._eligible_machines: Dict[tuple, Tuple[Machine, ...]] = {}
        # Negative first-fit cache: requirement signatures whose
        # first-fit scan came up empty, tagged with the capacity
        # version they failed at.  Every capacity release (finish,
        # suspension, detach, refill after recovery) bumps the version,
        # so a current-version hit proves the scan would fail again
        # without touching a machine.  A saturated pool sees long
        # arrival bursts between releases; this turns each burst's
        # repeated failing scans into one dictionary probe.
        self._no_first_fit: Dict[tuple, int] = {}
        self._capacity_version = 0
        # Snapshot cache: pools are snapshotted once per candidate per
        # policy decision, far more often than their statistics change.
        self._snapshot_key: Optional[tuple] = None
        self._snapshot: Optional[PoolSnapshot] = None
        # Fault-injection pool state: False while a blackout window is
        # open.  The engine flips it and routes around down pools.
        self.up = True

    # -- statistics --------------------------------------------------------------

    def utilization(self) -> float:
        """Busy fraction of the pool's cores."""
        if self.total_cores == 0:
            return 0.0
        return self.busy_cores / self.total_cores

    def snapshot(self) -> PoolSnapshot:
        """Point-in-time statistics for schedulers and policies.

        Cached on the statistics themselves: the key is recomputed from
        live counters on every call (so it can never go stale) and the
        frozen snapshot object is rebuilt only when a counter moved.
        """
        key = (self.busy_cores, len(self.wait_queue.members), len(self.suspended))
        if key != self._snapshot_key:
            self._snapshot_key = key
            self._snapshot = PoolSnapshot(
                pool_id=self.pool_id,
                total_cores=self.total_cores,
                busy_cores=key[0],
                waiting_jobs=key[1],
                suspended_jobs=key[2],
            )
        return self._snapshot

    def running_job_count(self) -> int:
        """Number of jobs currently executing in this pool."""
        return self.running_jobs

    # -- submission -----------------------------------------------------------------

    def eligible_machines(self, job_spec) -> Tuple[Machine, ...]:
        """Statically eligible machines for ``job_spec``, in dispatch order.

        This run's machines at the index's positions, kept per
        signature.  Both per-signature maps clear at the index's cap, so
        signature-diverse traces cost rebuilds, not unbounded RSS.
        """
        sig = (job_spec.os_family, job_spec.cores, job_spec.memory_gb)
        machines = self._eligible_machines.get(sig)
        if machines is None:
            if len(self._eligible_machines) >= self._index.cap:
                self._eligible_machines.clear()
                self._no_first_fit.clear()
            positions = self._index.positions(job_spec).get(self.pool_id, ())
            machines = tuple(map(self.machines.__getitem__, positions))
            self._eligible_machines[sig] = machines
        return machines

    def submit(self, job: Job, now: float) -> SubmitResult:
        """Dispatch an arriving job per the NetBatch pool-manager rules."""
        spec = job.spec
        sig = (spec.os_family, spec.cores, spec.memory_gb)
        eligible = self._eligible_machines.get(sig)
        if eligible is None:
            eligible = self.eligible_machines(spec)
        if not eligible:
            return _INELIGIBLE
        cores = spec.cores
        memory = spec.memory_gb
        # 1. First fit on an available eligible machine (dynamic checks
        #    inlined: this scan runs once per placement attempt).  The
        #    pool-level free-core total is a necessary condition for any
        #    machine to fit, and a no-first-fit entry at the current
        #    capacity version replays a scan that already failed —
        #    either proof lets a saturated pool skip the whole scan.
        if (
            self.total_cores - self.busy_cores >= cores
            and self._no_first_fit.get(sig) != self._capacity_version
        ):
            for machine in eligible:
                if (
                    machine.up
                    and machine.free_cores >= cores
                    and machine.free_memory_gb >= memory
                ):
                    self._start_on(job, machine, now)
                    return SubmitResult(SubmitOutcome.STARTED, machine)
            self._no_first_fit[sig] = self._capacity_version
        # 2. Preemption: first eligible machine where suspending
        #    lower-priority work makes room.  The priority histogram
        #    proves the common case — nothing running in the pool is
        #    below the new job's priority — without touching a machine.
        priority = job.priority
        for level, count in self._running_priorities.items():
            if count and level < priority:
                break
        else:
            job.enqueue(self.pool_id, now)
            self.wait_queue.push(job)
            return _QUEUED
        for machine in eligible:
            # Preemption frees cores but never memory: cheap rejects
            # first, then the exact victim computation.  The priority
            # bound is conservative (never stale high), so it can only
            # skip machines where no running job is preemptible.
            if (
                not machine.up
                or machine.free_memory_gb < memory
                or priority <= machine._min_running_priority
            ):
                continue
            victims = machine.preemption_victims(spec, priority)
            # An empty victim list means preemption cannot make the job
            # fit here (a machine it would already fit on was taken in
            # step 1), so move on.
            if not victims:
                continue
            for victim in victims:
                self._suspend_on(victim, machine, now)
            if not machine.fits_now(spec):
                raise SchedulingError(
                    f"pool {self.pool_id}: preemption on {machine.machine_id} "
                    f"did not make room for job {job.job_id}"
                )
            self._start_on(job, machine, now)
            return SubmitResult(SubmitOutcome.PREEMPTED, machine, tuple(victims))
        # 3. Queue.
        job.enqueue(self.pool_id, now)
        self.wait_queue.push(job)
        return _QUEUED

    # -- capacity refill ---------------------------------------------------------------

    def fill_machine(self, machine: Machine, now: float) -> List[Job]:
        """Hand freed capacity on ``machine`` to pending work.

        Suspended jobs resident on the machine resume first,
        unconditionally: NetBatch suspension is host-level (the process
        image stays resident), so a host with a suspended job is not
        "available" to the dispatch queue and the job resumes as soon
        as its preemptor's cores free up.  Queued jobs only claim
        whatever capacity is left once nothing resident can resume.
        New *arrivals* can still re-suspend a resumed job through
        dispatch-time preemption — which is how one job comes to be
        "suspended more than once" during a burst (Section 2.2).
        Returns the jobs that started or resumed.
        """
        placed: List[Job] = []
        # The engine calls this after every capacity release, including
        # machine/pool recoveries that flip ``up`` flags outside the
        # pool's sight — so the refill entry point also invalidates the
        # negative first-fit cache.
        self._capacity_version += 1
        if not self.up or not machine.up:
            return placed
        wait_queue = self.wait_queue
        # Every job needs at least one core, so a full machine can
        # neither resume nor start anything: skip the probes.
        while machine.free_cores > 0:
            job = self._best_resumable(machine) if machine.suspended else None
            if job is not None:
                machine.resume(job)
                job.resume(now)
                del self.suspended[job.job_id]
                self._suspend_order.pop(job.job_id, None)
                self.busy_cores += job.spec.cores
                self.running_jobs += 1
                counts = self._running_priorities
                priority = job.priority
                counts[priority] = counts.get(priority, 0) + 1
                placed.append(job)
                continue
            if not wait_queue.members:
                break
            # Machine fit depends only on the job's requirement
            # signature, so the sharded queue evaluates it once per
            # signature instead of once per queued job.
            job = wait_queue.best_schedulable(machine.can_start)
            if job is None:
                break
            wait_queue.remove(job)
            self._start_on(job, machine, now)
            placed.append(job)
        return placed

    def _best_resumable(self, machine: Machine) -> Optional[Job]:
        """Highest-priority suspended job on ``machine`` that fits its free cores."""
        best: Optional[Job] = None
        best_key = None
        for job in machine.suspended.values():
            if machine.free_cores < job.spec.cores:
                continue
            key = (-job.priority, self._suspend_order.get(job.job_id, 0))
            if best_key is None or key < best_key:
                best_key = key
                best = job
        return best

    # -- job lifecycle hooks (called by the engine) ------------------------------------------

    def finish_job(self, job: Job, now: float) -> Machine:
        """Account a running job's completion; returns its machine.

        The machine release and its running-priority histogram update
        happen here (the mirror image of :meth:`_start_on`), followed
        by the job's one ``finish`` transition.
        """
        machine = job.machine
        job_id = job.job_id
        if machine is None or job_id not in machine.running:
            raise SchedulingError(
                f"pool {self.pool_id}: job {job_id} is not running on any machine here"
            )
        spec = job.spec
        cores = spec.cores
        priority = job.priority
        del machine.running[job_id]
        machine.free_cores += cores
        machine.free_memory_gb += spec.memory_gb
        counts = machine._running_priorities
        remaining = counts[priority] - 1
        if remaining:
            counts[priority] = remaining
        else:
            del counts[priority]
            if priority == machine._min_running_priority:
                machine._min_running_priority = min(counts) if counts else _INF
        self.busy_cores -= cores
        self.running_jobs -= 1
        self._running_priorities[priority] -= 1
        self._capacity_version += 1
        job.finish(now)
        return machine

    def finish_suspended(self, job: Job, now: float) -> Machine:
        """Account a fractionally-shared suspended job's completion.

        A suspended job holds memory but no cores, so only the resident
        memory is released; the suspension episode is capped at the
        finish time (see :meth:`Job.finish`).  Returns the machine so
        the engine can refill the freed memory.
        """
        machine = self._release_suspended(job)
        job.finish(now)
        return machine

    def detach_suspended(
        self, job: Job, now: float, preserve_progress: bool = False
    ) -> Machine:
        """Remove a suspended job (rescheduled away); returns its machine.

        Frees the memory the suspended job was holding, which may allow
        queued work to start — the engine refills the machine.  With
        ``preserve_progress`` the job keeps its completed work
        (checkpoint/VM migration); otherwise the progress becomes
        wasted-restart time (the paper's restart semantics).
        """
        machine = self._release_suspended(job)
        if preserve_progress:
            job.checkpoint_detach(now)
        else:
            job.abandon(now)
        return machine

    def _release_suspended(self, job: Job) -> Machine:
        """Take a suspended job off its machine and out of this pool's books.

        The shared first half of every suspended-job exit (finish,
        reschedule, cancel); the caller applies the job's transition.
        """
        machine = job.machine
        job_id = job.job_id
        if machine is None or job_id not in machine.suspended:
            raise SchedulingError(
                f"pool {self.pool_id}: job {job_id} is not suspended on any machine here"
            )
        machine.remove(job)
        del self.suspended[job_id]
        self._suspend_order.pop(job_id, None)
        self._capacity_version += 1
        return machine

    def detach_running(self, job: Job) -> Machine:
        """Remove a running job without completing it (duplicate-loser cleanup)."""
        machine = job.machine
        if machine is None or job.job_id not in machine.running:
            raise SchedulingError(
                f"pool {self.pool_id}: job {job.job_id} is not running on any machine here"
            )
        machine.remove(job)
        self.busy_cores -= job.spec.cores
        self.running_jobs -= 1
        self._running_priorities[job.spec.priority] -= 1
        self._capacity_version += 1
        return machine

    def remove_waiting(self, job: Job, now: float) -> None:
        """Take a job out of the wait queue (waiting-job rescheduling)."""
        self.wait_queue.remove(job)
        job.dequeue(now)

    def cancel_job(self, job: Job, now: float) -> Optional[Machine]:
        """Tear down a duplicate-loser attempt wherever it is in this pool.

        Returns the machine whose capacity was freed, or ``None`` when
        the job was only waiting in the queue.
        """
        if job.state is JobState.RUNNING:
            machine = self.detach_running(job)
            job.cancel(now)
            return machine
        if job.state is JobState.SUSPENDED:
            machine = self._release_suspended(job)
            job.cancel(now)
            return machine
        if job.state is JobState.WAITING:
            self.wait_queue.remove(job)
            job.cancel(now)
            return None
        raise SchedulingError(
            f"pool {self.pool_id}: cannot cancel job {job.job_id} "
            f"in state {job.state.value}"
        )

    # -- fault injection (called by the engine) ----------------------------------------

    def evict_machine(self, machine: Machine) -> List[Job]:
        """Empty one machine after a host death; returns the orphans.

        Running jobs come first, then suspended ones, each in occupancy
        order.  Only the pool-level accounting happens here — the jobs
        still reference the machine so the engine can fold their final
        segment into the fault accounting before requeueing them.
        """
        orphans: List[Job] = []
        self._capacity_version += 1
        for job in list(machine.running.values()):
            machine.remove(job)
            self.busy_cores -= job.spec.cores
            self.running_jobs -= 1
            self._running_priorities[job.spec.priority] -= 1
            orphans.append(job)
        for job in list(machine.suspended.values()):
            machine.remove(job)
            del self.suspended[job.job_id]
            self._suspend_order.pop(job.job_id, None)
            orphans.append(job)
        return orphans

    def drain(self) -> Tuple[List[Job], List[Job]]:
        """Pool blackout: empty every machine and the wait queue.

        Returns ``(killed, drained)``: attempts that were running or
        suspended on a machine, and jobs swept out of the wait queue.
        Individual machines keep their own up/down state; the
        pool-level ``up`` flag is the engine's to manage.
        """
        killed: List[Job] = []
        for machine in self.machines:
            killed.extend(self.evict_machine(machine))
        drained: List[Job] = []
        for job in list(self.wait_queue.iter_jobs()):
            self.wait_queue.remove(job)
            drained.append(job)
        return killed, drained

    # -- internals ---------------------------------------------------------------------

    def _start_on(self, job: Job, machine: Machine, now: float) -> None:
        """Start ``job`` on ``machine``: the job's *start* transition.

        One step does the machine's occupancy and priority histogram,
        the job's state and wait accounting, and the pool's counters.
        Both checks run before anything changes: a job that does not
        fit raises :class:`SchedulingError`, and a job that is neither
        PENDING nor WAITING raises :class:`JobStateError`.
        """
        spec = job.spec
        cores = spec.cores
        memory = spec.memory_gb
        if not (
            machine.up
            and machine.free_cores >= cores
            and machine.free_memory_gb >= memory
        ):
            raise SchedulingError(
                f"machine {machine.machine_id}: job {job.job_id} does not fit "
                f"(free {machine.free_cores}c/{machine.free_memory_gb}GB, "
                f"needs {cores}c/{memory}GB)"
            )
        state = job.state
        if state is JobState.WAITING:
            job.total_wait += now - job.segment_start
            job.wait_episode += 1
        elif state is not JobState.PENDING:
            raise JobStateError(job.job_id, state.value, "start")
        pool_id = self.pool_id
        priority = job.priority
        machine.free_cores -= cores
        machine.free_memory_gb -= memory
        machine.running[job.job_id] = job
        counts = machine._running_priorities
        counts[priority] = counts.get(priority, 0) + 1
        if priority < machine._min_running_priority:
            machine._min_running_priority = priority
        job.state = JobState.RUNNING
        job.machine = machine
        job.pool_id = pool_id
        job.epoch += 1
        if job.first_start_minute is None:
            job.first_start_minute = now
        # Kept duplicate-free, so records take it as it is.
        if pool_id not in job.pools_visited:
            job.pools_visited.append(pool_id)
        job.segment_start = now
        self.busy_cores += cores
        self.running_jobs += 1
        counts = self._running_priorities
        counts[priority] = counts.get(priority, 0) + 1

    def _suspend_on(self, victim: Job, machine: Machine, now: float) -> None:
        machine.suspend(victim)
        self._capacity_version += 1
        victim.suspend(now)
        self.suspended[victim.job_id] = victim
        self._suspend_order[victim.job_id] = self._suspend_counter
        self._suspend_counter += 1
        self.busy_cores -= victim.spec.cores
        self.running_jobs -= 1
        self._running_priorities[victim.spec.priority] -= 1

    def check_invariants(self) -> None:
        """Validate aggregate counters against per-machine state."""
        running = sum(len(m.running) for m in self.machines)
        if running != self.running_jobs:
            raise SchedulingError(
                f"pool {self.pool_id}: running-job drift (counter={self.running_jobs}, "
                f"actual={running})"
            )
        busy = sum(m.busy_cores for m in self.machines)
        if busy != self.busy_cores:
            raise SchedulingError(
                f"pool {self.pool_id}: busy-core drift (counter={self.busy_cores}, "
                f"actual={busy})"
            )
        suspended_on_machines = {
            job_id for m in self.machines for job_id in m.suspended
        }
        if suspended_on_machines != set(self.suspended):
            raise SchedulingError(
                f"pool {self.pool_id}: suspended-set drift"
            )
        actual_priorities: Dict[int, int] = {}
        for m in self.machines:
            for job in m.running.values():
                p = job.spec.priority
                actual_priorities[p] = actual_priorities.get(p, 0) + 1
        tracked = {p: c for p, c in self._running_priorities.items() if c}
        if tracked != actual_priorities:
            raise SchedulingError(
                f"pool {self.pool_id}: running-priority histogram drift "
                f"(counter={tracked}, actual={actual_priorities})"
            )
        for sig, version in self._no_first_fit.items():
            if version != self._capacity_version:
                continue
            for machine in self._eligible_machines.get(sig, ()):
                if (
                    machine.up
                    and machine.free_cores >= sig[1]
                    and machine.free_memory_gb >= sig[2]
                ):
                    raise SchedulingError(
                        f"pool {self.pool_id}: stale no-first-fit entry for {sig} "
                        f"(machine {machine.machine_id} fits)"
                    )
        for machine in self.machines:
            machine.check_invariants()
        self.wait_queue.check_invariants()
        for job in self.wait_queue.iter_jobs():
            if job.state is not JobState.WAITING:
                raise SchedulingError(
                    f"pool {self.pool_id}: queued job {job.job_id} in state {job.state.value}"
                )

    def __repr__(self) -> str:
        return (
            f"PhysicalPool({self.pool_id}, util={self.utilization():.2f}, "
            f"waiting={len(self.wait_queue)}, suspended={len(self.suspended)})"
        )
