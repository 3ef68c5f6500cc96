"""The simulation engine: our from-scratch stand-in for Intel's ASCA.

ASCA is "a hybrid event-based and agent-based simulator ... [that]
models the operational capability and semantics of various fine-grained
components of NetBatch such as sites, pools, queues, job requirements
and priorities, virtual and physical pool managers, round-robin
physical pool scheduling.  It samples at each minute the current states
of all NetBatch components" (Section 3.1).  This engine reproduces that
design: a discrete-event core (submissions, completions, wait-timeout
checks, rescheduling arrivals) plus a periodic sampling tick.

The engine owns the event queue and the policy/scheduler hook points;
pools own machine-level bookkeeping; jobs own their accounting.  The
rescheduling policy is consulted exactly where the paper inserts its
strategies: when a job is suspended by preemption, and when a waiting
job crosses the policy's threshold.
"""

from __future__ import annotations

import gc
import itertools
import random
from collections import deque
from contextlib import ExitStack
from dataclasses import replace
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.context import PoolSnapshot, SystemView
from ..core.decisions import Action, Decision
from ..core.policy import ReschedulingPolicy
from ..core.policies import NoRescheduling
from ..errors import (
    SchedulingError,
    SimulationError,
    UnknownPoolError,
    UnschedulableJobError,
)
from ..faults.injector import FaultInjector
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..telemetry.hooks import EngineTelemetry
from ..telemetry.layers import LayerProfiler
from ..workload.cluster import ClusterSpec
from ..workload.distributions import RandomStreams
from ..workload.trace import TraceJob
from .config import SimulationConfig
from .events import (
    EVENT_FINISH,
    EVENT_JOB_FAILURE,
    EVENT_JOB_RETRY,
    EVENT_MACHINE_CRASH,
    EVENT_MACHINE_RECOVER,
    EVENT_NAMES,
    EVENT_POOL_ARRIVAL,
    EVENT_POOL_DOWN,
    EVENT_POOL_UP,
    EVENT_SAMPLE,
    EVENT_SUBMIT,
    EVENT_WAIT_TIMEOUT,
    EventQueue,
)
from .job import Job, JobState
from .machine import Machine
from .pool import PhysicalPool, SubmitOutcome, SubmitResult
from .observer import SimEvent
from .results import JobRecord, RecordingSink, SimulationResult, StateSample
from .virtual_pool import VirtualPoolManager

__all__ = ["SimulationEngine", "LiveSystemView", "SHADOW_ID_BASE"]

#: First shadow-job id.  A feed's maximum job id is unknown until the
#: feed is exhausted, so shadow attempts are numbered upwards from a
#: base no sane trace reaches.
SHADOW_ID_BASE = 1 << 62

_busy_cores = attrgetter("busy_cores")
_running_jobs = attrgetter("running_jobs")


def _resume_collector() -> None:
    """Re-enable the cyclic collector and take its young-generation pass."""
    gc.enable()
    gc.collect(0)


class LiveSystemView(SystemView):
    """A :class:`SystemView` backed by the engine's live state."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        return self._engine.pool_order

    def pool(self, pool_id: str) -> PoolSnapshot:
        try:
            return self._engine.pools[pool_id].snapshot()
        except KeyError:
            raise UnknownPoolError(pool_id) from None

    @property
    def rng(self) -> random.Random:
        return self._engine.decision_rng

    def candidate_pools(self, job) -> Tuple[str, ...]:
        """Pools the job may run in, is statically eligible in, and that are up."""
        return self._engine.available_candidates(job.spec)


class SimulationEngine:
    """Runs one trace against one cluster under one policy."""

    def __init__(
        self,
        trace: Iterable[TraceJob],
        cluster: ClusterSpec,
        policy: Optional[ReschedulingPolicy] = None,
        initial_scheduler: Optional[InitialScheduler] = None,
        config: Optional[SimulationConfig] = None,
        sink=None,
    ) -> None:
        """Build one single-use engine.

        Args:
            trace: the workload: a :class:`~repro.workload.trace.Trace`
                or any iterable of :class:`TraceJob` sorted by
                ``submit_minute``.  Either is consumed **lazily** in
                submission order during :meth:`run`, so only in-flight
                jobs are live at any moment.
            cluster: the site to emulate.
            policy: rescheduling policy (default: the NoRes baseline).
            initial_scheduler: VPM initial scheduler (default round-robin).
            config: engine knobs.
            sink: result sink the per-job records and samples are folded
                into as they are produced; :meth:`run` returns its
                ``finalize(...)`` value.  The default
                :class:`~repro.simulator.results.RecordingSink` keeps
                them all and finalizes to a :class:`SimulationResult`;
                :class:`~repro.simulator.online.OnlineResults` keeps
                constant-size aggregates instead.
        """
        self.config = config or SimulationConfig()
        self.policy = policy or NoRescheduling()
        self.scheduler = initial_scheduler or RoundRobinScheduler()
        # A reused scheduler instance (grids share one object across
        # cells) must not leak placement state between runs: every
        # simulation is a pure function of its inputs.
        self.scheduler.reset()
        instrumentation = self.config.instrumentation
        self._telemetry: Optional[EngineTelemetry] = (
            EngineTelemetry(instrumentation.metrics, cluster.pool_ids)
            if instrumentation.metrics is not None
            else None
        )
        # Every event tap: the observers, then the metrics.
        self._taps = instrumentation.observers + (
            () if self._telemetry is None else (self._telemetry,)
        )
        self._emit_enabled = bool(self._taps)
        self._profiler = LayerProfiler() if instrumentation.profile else None
        # Static eligibility is shared by every run on ``cluster``;
        # ``eligible_candidates(spec)`` is the pools where ``spec`` is
        # whitelisted and statically eligible.
        eligibility = cluster.eligibility
        self.eligible_candidates = eligibility.candidates
        self.pools: Dict[str, PhysicalPool] = {
            pool.pool_id: PhysicalPool(pool, eligibility)
            for pool in cluster
        }
        self.pool_order: Tuple[str, ...] = cluster.pool_ids
        self.total_cores = cluster.total_cores
        # Pools and their core totals in pool order, fixed over a run,
        # so the sampling tick need not look them up every minute.
        self._pool_list = [self.pools[pool_id] for pool_id in self.pool_order]
        self._pool_core_totals = [pool.total_cores for pool in self._pool_list]
        # The per-pool waiting and suspended sets are fixed objects too,
        # so a sample counts them with ``map(len, ...)``, no Python loop.
        self._pool_waiting = [pool.wait_queue.members for pool in self._pool_list]
        self._pool_suspended = [pool.suspended for pool in self._pool_list]
        self._streams = RandomStreams(self.config.seed)
        self.decision_rng = self._streams.stream("decisions")
        self.view = LiveSystemView(self)
        self._vpms = [
            VirtualPoolManager(f"vpm-{i}", self.scheduler, self.pools)
            for i in range(self.config.vpm_count)
        ]
        self._events = EventQueue()
        self._sink = sink if sink is not None else RecordingSink()
        # Hot-path record/sample routing, bound once.
        self._add_record = self._sink.add_record
        self._add_sample = self._sink.add_sample
        self._feed = iter(trace)
        #: Submission minute of the feed's next job; ``None`` once the
        #: feed has yielded its last job.
        self._next_submit: Optional[float] = None
        self._outstanding = 0
        self._dup_partner: Dict[int, Job] = {}
        # Permanently failed members of duplicate pairs, keyed by the
        # surviving attempt's job id so the survivor's record (or
        # failure) merges both attempts' accounting.
        self._dup_fallen: Dict[int, Job] = {}
        self._outage_depth: Dict[str, int] = {}
        self._shadow_ids = itertools.count(SHADOW_ID_BASE)
        # A run whose jobs are all rejected at minute 0 records the
        # minute-0 sample with faults on as with them off.
        self._first_tick_due = self.config.record_samples
        if self._first_tick_due:
            self._events.push(0.0, EVENT_SAMPLE, None)
        self._finished = False
        self._faults: Optional[FaultInjector] = None
        if self.config.faults.enabled:
            self._faults = FaultInjector(self.config.faults, self._streams)
            self._faults.schedule_initial(self._events, self.pool_order, self.pools)
        # Handler table indexed by event kind (the kinds are dense small
        # ints); every handler takes (payload, now).
        handlers = {
            EVENT_SUBMIT: self._on_submit,
            EVENT_FINISH: self._on_finish,
            EVENT_WAIT_TIMEOUT: self._on_wait_timeout,
            EVENT_POOL_ARRIVAL: self._on_pool_arrival,
            EVENT_SAMPLE: self._on_sample,
            EVENT_MACHINE_CRASH: self._on_machine_crash,
            EVENT_MACHINE_RECOVER: self._on_machine_recover,
            EVENT_POOL_DOWN: self._on_pool_down,
            EVENT_POOL_UP: self._on_pool_up,
            EVENT_JOB_FAILURE: self._on_job_failure,
            EVENT_JOB_RETRY: self._on_job_retry,
        }
        self._dispatch = tuple(handlers[kind] for kind in range(len(handlers)))

    # -- public API -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in minutes."""
        return self._events.now

    def profile_report(self):
        """The run's :class:`~repro.telemetry.ProfileReport`, or ``None``.

        Available after :meth:`run` when the configuration enabled
        ``instrumentation.profile``.
        """
        if self._profiler is None:
            return None
        return self._profiler.report()

    def run(self) -> SimulationResult:
        """Execute until every job completes; return ``sink.finalize(...)``.

        With the default sink that is a :class:`SimulationResult`; with
        an :class:`~repro.simulator.online.OnlineResults` sink it is the
        sink itself.

        The event loop runs with Python's cyclic garbage collector
        paused: a run makes no cyclic garbage, so the collector would
        only re-scan the heap.  The pause is process-wide and lasts only
        as long as the loop.  The collector resumes before ``finalize``,
        on return and on raise alike, and only if it was enabled when the
        run began; it then takes its one young-generation pass over the
        run's surviving objects.  Once the loop ends, the engine drops
        its handler table and ``view``, the only references back to
        itself, so a finished engine is freed by reference counting.
        """
        if self._finished:
            raise SimulationError("engine instances are single-use; build a new one")
        self._finished = True
        telemetry = self._telemetry
        profiler = self._profiler
        # Unwound also when the run raises: the collector resumes inside
        # the profiled span, every swapped method is restored, the taps
        # are closed in order, and the engine's self-references go.
        with ExitStack() as teardown:
            teardown.callback(self._drop_self_references)
            for tap in reversed(self._taps):
                close = getattr(tap, "close", None)
                if close is not None:
                    teardown.callback(close)
            if telemetry is not None:
                telemetry.count_dispatch(self, EVENT_NAMES, teardown)
            if profiler is not None:
                profiler.attach(self, teardown)
            if gc.isenabled():
                gc.disable()
                teardown.callback(_resume_collector)
            self._drain()
        if self._outstanding != 0:
            raise SimulationError(
                f"event queue drained with {self._outstanding} jobs unfinished"
            )
        if telemetry is not None:
            telemetry.finalize(
                self.now,
                self._outstanding,
                self.pool_order,
                {
                    pool_id: self.pools[pool_id].wait_queue.stats()
                    for pool_id in self.pool_order
                },
                self._faults,
            )
            if profiler is not None:
                telemetry.record_profile(profiler.report())
        faults = self._faults
        return self._sink.finalize(
            pool_ids=self.pool_order,
            policy_name=self.policy.name,
            scheduler_name=self.scheduler.name,
            total_cores=self.total_cores,
            fault_stats=(
                None if faults is None else faults.finalize(self._sink.goodput_minutes)
            ),
        )

    def _drop_self_references(self) -> None:
        """Break the engine's reference cycles once its run is over."""
        self._dispatch = ()
        self.view = None

    def _drain(self) -> None:
        """The event loop: merge the trace feed with the event queue.

        Submissions are *pulled* from the feed and processed directly —
        never queued — so memory stays constant in the trace length:
        only in-flight jobs and their runtime events are live at any
        moment.  At equal times a submission fires before any queued
        event, in trace order: the next arrival is processed whenever
        ``submit_minute <= peek_time()`` (the clock is advanced to the
        submission time first, as a popped event would have done).

        Fault renewal processes (machine crash/recover) outlive the
        workload; once the feed is drained, every job is accounted for
        and the minute-0 tick (if sampling) is taken, the remaining
        events are pure fault noise and the run is over.  Without faults
        the queue drains naturally.
        """
        events = self._events
        max_minutes = self.config.max_minutes
        faults = self._faults
        dispatch = self._dispatch
        submit = dispatch[EVENT_SUBMIT]
        pop = events.pop
        peek = events.peek_time
        advance = events.advance_to
        feed = self._feed
        next_spec = next(feed, None)
        if next_spec is not None:
            self._next_submit = next_spec.submit_minute
        last_submit = 0.0
        while True:
            if next_spec is not None:
                queue_time = peek()
                submit_minute = next_spec.submit_minute
                if queue_time is None or submit_minute <= queue_time:
                    if submit_minute < last_submit:
                        raise SimulationError(
                            f"trace feed is not sorted by submission "
                            f"time: job {next_spec.job_id} submits at minute "
                            f"{submit_minute} after minute {last_submit}"
                        )
                    last_submit = submit_minute
                    if max_minutes is not None and submit_minute > max_minutes:
                        raise SimulationError(
                            f"simulation exceeded max_minutes={max_minutes} "
                            f"with {self._outstanding} jobs outstanding"
                        )
                    advance(submit_minute)
                    self._outstanding += 1
                    submit(Job(next_spec), submit_minute)
                    next_spec = next(feed, None)
                    self._next_submit = (
                        None if next_spec is None else next_spec.submit_minute
                    )
                    continue
                # Otherwise a queued event comes first: pop it below.
            elif not len(events):
                break
            elif faults is not None and self._outstanding == 0 and not self._first_tick_due:
                break
            time, _, kind, payload = pop()
            if max_minutes is not None and time > max_minutes:
                raise SimulationError(
                    f"simulation exceeded max_minutes={max_minutes} "
                    f"with {self._outstanding} jobs outstanding"
                )
            dispatch[kind](payload, time)

    def available_candidates(self, spec: TraceJob) -> Tuple[str, ...]:
        """Eligible pools that are also currently up.

        Without fault injection every pool is always up and this *is*
        ``eligible_candidates`` (same tuple object, so scheduler
        state keyed on the candidate tuple is unaffected).
        """
        candidates = self.eligible_candidates(spec)
        if self._faults is None:
            return candidates
        return tuple(p for p in candidates if self.pools[p].up)

    # -- event handlers -----------------------------------------------------------------

    def _emit(
        self,
        now: float,
        event: str,
        job: Job,
        pool_id: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Fan one simulation event out to every tap, in order.

        The enabled-check lives here so emission can never be
        accidentally skipped for one tap; hot call sites *also*
        pre-check ``_emit_enabled`` before building detail strings, so
        the telemetry-off path pays neither string formatting nor this
        call.
        """
        if not self._emit_enabled:
            return
        if job.is_shadow and detail is None:
            detail = "shadow"
        sim_event = SimEvent(
            minute=now, event=event, job_id=job.job_id,
            pool_id=pool_id, detail=detail,
        )
        for tap in self._taps:
            tap.on_event(sim_event)

    def _on_submit(self, job: Job, now: float) -> None:
        if self._emit_enabled:
            self._emit(now, "submit", job)
        self._place_via_vpm(job, now)

    def _place_via_vpm(self, job: Job, now: float) -> None:
        """Hand a PENDING job to its virtual pool manager.

        Shared by submission, orphan requeue and retry.  When fault
        injection has every statically-eligible pool dark, placement is
        deferred rather than rejected: the job tries again after the
        configured requeue delay.
        """
        candidates = self.eligible_candidates(job.spec)
        if self._faults is not None:
            available = self.available_candidates(job.spec)
            if not available and candidates:
                self._faults.note_deferred()
                self._emit(now, "fault-defer", job)
                self._events.push(
                    now + self.config.faults.requeue_delay_minutes,
                    EVENT_JOB_RETRY,
                    job,
                )
                return
            candidates = available
        vpm = self._vpms[job.job_id % len(self._vpms)]
        result, _ = vpm.submit(job, candidates, self.view, now)
        victims = self._after_placement(job, result, now)
        if victims:
            self._process_victims(victims, now)

    def _on_finish(self, payload: Tuple[Job, int], now: float) -> None:
        job, epoch = payload
        if job.epoch != epoch:
            return  # stale completion from before a suspension/restart
        pool_id = job.pool_id
        if job.state is JobState.RUNNING:
            pool = self.pools[pool_id]
            finish_pool = pool_id
            machine = pool.finish_job(job, now)
        elif job.state is JobState.SUSPENDED and job.fractional_share:
            # A fractional-share grant let the suspended job run out its
            # remaining work in place (see _grant_fraction).
            pool = self.pools[pool_id]
            finish_pool = pool_id
            machine = pool.finish_suspended(job, now)
        else:
            return  # stale completion from before a suspension/restart
        if self._emit_enabled:
            self._emit(now, "finish", job, pool_id=finish_pool)
        partner = self._dup_partner.pop(job.job_id, None)
        if partner is not None:
            self._dup_partner.pop(partner.job_id, None)
            self._cancel_attempt(partner, now)
        else:
            # A pair member that permanently failed earlier has nothing
            # left to cancel, but its accounting still merges in.
            partner = self._dup_fallen.pop(job.job_id, None)
        self._record_completion(job, partner, now)
        self._fill(pool, machine, now)

    def _on_wait_timeout(self, payload: Tuple[Job, int], now: float) -> None:
        job, episode = payload
        if job.state is not JobState.WAITING or job.wait_episode != episode:
            return  # the job started or moved since this check was scheduled
        decision = self.policy.on_wait_timeout(job, self.view)
        if self._telemetry is not None:
            self._telemetry.count_policy_decision(
                self.policy.name, decision.action.value
            )
        target = self._validated_target(job, decision)
        if target is None:
            # Keep checking: the paper's per-job timer re-arms while the
            # job remains stuck.
            threshold = self.policy.wait_threshold
            if threshold is not None:
                self._events.push(now + threshold, EVENT_WAIT_TIMEOUT, (job, episode))
            return
        origin_id = job.pool_id
        self.pools[origin_id].remove_waiting(job, now)
        if self._emit_enabled:
            self._emit(now, "dequeue", job, pool_id=origin_id)
        # A moved job may itself preempt lower-priority work at the
        # target pool; run those victims through the suspension hook.
        victims = self._move_to_pool(job, target, now, origin=origin_id)
        if victims:
            self._process_victims(victims, now)

    def _on_pool_arrival(self, payload: Tuple[Job, str], now: float) -> None:
        job, pool_id = payload
        if job.state is JobState.FINISHED:
            return  # cancelled while in transit (duplication loser)
        if job.state is not JobState.PENDING:
            raise SimulationError(
                f"job {job.job_id} arrived at pool {pool_id} in state {job.state.value}"
            )
        if self._faults is not None and not self.pools[pool_id].up:
            # The target went dark while the job was in transit; route
            # around it like any other placement.
            self._emit(now, "fault-reroute", job, pool_id=pool_id)
            self._place_via_vpm(job, now)
            return
        victims = self._submit_to(job, pool_id, now)
        if victims:
            self._process_victims(victims, now)

    def _on_sample(self, _payload: None, now: float) -> None:
        """Sample the state at ``now`` and at every idle tick after it.

        Only a queued event or a feed submission can change the state,
        so every tick strictly before the earlier of the two (the
        *horizon*) repeats this sample and is emitted here, and one
        ``EVENT_SAMPLE`` is queued for the first tick at or after it.
        Strict-before keeps ties exact: a submission at a tick's minute
        fires before the tick, and a queued event at that minute was
        pushed before the tick would have been, so it fires first too.
        Tick minutes come from the same repeated ``+ sample_interval``
        additions as one event per tick would produce, and the sink and
        invariant checks still see every tick; telemetry sees the
        stretch once, as its last tick plus its tick count.  No tick
        past ``max_minutes`` is taken or queued: the bound walls the
        workload's events, so sampling never fails a run that completes
        without it.
        """
        self._first_tick_due = False
        pools = self._pool_list
        per_pool_busy = tuple(map(_busy_cores, pools))
        per_pool_waiting = tuple(map(len, self._pool_waiting))
        per_pool_suspended = tuple(map(len, self._pool_suspended))
        state = (
            sum(per_pool_busy),
            self.total_cores,
            sum(map(_running_jobs, pools)),
            sum(per_pool_suspended),
            sum(per_pool_waiting),
            per_pool_busy,
            per_pool_waiting,
            per_pool_suspended,
        )
        horizon = self._events.peek_time()
        next_submit = self._next_submit
        if horizon is None or (next_submit is not None and next_submit < horizon):
            horizon = next_submit
        interval = self.config.sample_interval
        max_minutes = self.config.max_minutes
        add_sample = self._add_sample
        telemetry = self._telemetry
        check_invariants = self.config.check_invariants
        tick = now
        for ticks in itertools.count(1):
            add_sample(StateSample(tick, *state))
            if check_invariants:
                for pool in pools:
                    pool.check_invariants()
            if self._outstanding == 0 and next_submit is None:
                break
            next_tick = tick + interval
            if max_minutes is not None and next_tick > max_minutes:
                break
            if horizon is not None and next_tick >= horizon:
                self._events.push(next_tick, EVENT_SAMPLE, None)
                break
            tick = next_tick
        if telemetry is not None:
            telemetry.on_sample(
                tick,
                ticks,
                self._outstanding,
                self.total_cores,
                per_pool_busy,
                self._pool_core_totals,
                per_pool_waiting,
                per_pool_suspended,
            )

    # -- fault handlers -----------------------------------------------------------------

    def _on_machine_crash(self, payload: Tuple[str, Machine], now: float) -> None:
        pool_id, machine = payload
        faults = self._faults
        machine.up = False
        faults.note_machine_crash()
        self._events.push(
            now + faults.draw_ttr(pool_id, machine.machine_id),
            EVENT_MACHINE_RECOVER,
            (pool_id, machine),
        )
        pool = self.pools[pool_id]
        orphans = pool.evict_machine(machine)
        self._requeue_orphans(orphans, (), now, cause="machine")

    def _on_machine_recover(self, payload: Tuple[str, Machine], now: float) -> None:
        pool_id, machine = payload
        faults = self._faults
        machine.up = True
        faults.note_machine_recovery()
        self._events.push(
            now + faults.draw_ttf(pool_id, machine.machine_id),
            EVENT_MACHINE_CRASH,
            (pool_id, machine),
        )
        pool = self.pools[pool_id]
        if pool.up:
            self._fill(pool, machine, now)

    def _on_pool_down(self, pool_id: str, now: float) -> None:
        # Overlapping outage windows nest: the pool is down while any
        # window covers it.
        depth = self._outage_depth.get(pool_id, 0) + 1
        self._outage_depth[pool_id] = depth
        if depth > 1:
            return
        pool = self.pools[pool_id]
        pool.up = False
        self._faults.note_pool_down(pool_id)
        killed, drained = pool.drain()
        self._requeue_orphans(killed, drained, now, cause="outage")

    def _on_pool_up(self, pool_id: str, now: float) -> None:
        depth = self._outage_depth.get(pool_id, 0) - 1
        self._outage_depth[pool_id] = depth
        if depth > 0:
            return
        pool = self.pools[pool_id]
        pool.up = True
        for machine in pool.machines:
            if machine.up:
                self._fill(pool, machine, now)

    def _requeue_orphans(
        self,
        killed: List[Job],
        drained: List[Job],
        now: float,
        cause: str,
    ) -> None:
        """Fold fault kills into job accounting, then re-place every orphan.

        ``killed`` attempts were running or suspended (their progress is
        lost); ``drained`` jobs were only waiting.  All transitions
        happen before any placement so one orphan's placement sees the
        others' capacity already released.
        """
        faults = self._faults
        for job in killed:
            origin = job.pool_id
            lost = job.fail_attempt(now, kind="machine")
            faults.note_kill(lost)
            self._emit(now, "fault-kill", job, pool_id=origin, detail=cause)
        for job in drained:
            origin = job.pool_id
            job.fail_attempt(now, kind="drain")
            faults.note_drained()
            self._emit(now, "fault-requeue", job, pool_id=origin, detail=cause)
        for job in itertools.chain(killed, drained):
            self._place_via_vpm(job, now)

    def _on_job_failure(self, payload: Tuple[Job, int], now: float) -> None:
        job, epoch = payload
        if job.epoch != epoch or job.state is not JobState.RUNNING:
            return  # the segment this failure was rolled for ended first
        faults = self._faults
        pool = self.pools[job.pool_id]
        origin = job.pool_id
        machine = pool.detach_running(job)
        lost = job.fail_attempt(now, kind="transient")
        faults.note_transient_failure(lost)
        failures = job.transient_failures
        if self._emit_enabled:
            self._emit(
                now, "fault-job-failure", job, pool_id=origin,
                detail=f"attempt={failures}",
            )
        self._fill(pool, machine, now)
        retry = self.config.faults.retry
        if failures >= retry.max_attempts:
            self._emit(now, "fault-give-up", job, pool_id=origin)
            self._give_up(job, now)
        else:
            faults.note_retry()
            self._events.push(
                now + faults.retry_delay(failures), EVENT_JOB_RETRY, job
            )

    def _on_job_retry(self, job: Job, now: float) -> None:
        if job.state is not JobState.PENDING:
            return  # cancelled (duplicate loser) while waiting to retry
        self._place_via_vpm(job, now)

    def _give_up(self, job: Job, now: float) -> None:
        """Permanently fail a job whose retry budget is exhausted."""
        partner = self._dup_partner.pop(job.job_id, None)
        if partner is not None:
            # The logical job lives on in the other attempt; stash this
            # dead one so the survivor's record merges its accounting.
            self._dup_partner.pop(partner.job_id, None)
            self._dup_fallen[partner.job_id] = job
            job.give_up(now)
            return
        fallen = self._dup_fallen.pop(job.job_id, None)
        job.give_up(now)
        self._record_failure(job, fallen, now)

    # -- placement and rescheduling machinery ---------------------------------------------

    def _after_placement(self, job: Job, result: SubmitResult, now: float) -> Tuple[Job, ...]:
        """Emit and schedule what a submission implies; returns its victims.

        A started job gets its completion (or failure) scheduled, a
        queued one its wait timer, and an ineligible one is rejected.
        The caller runs the victims of a preempting start through the
        policy.
        """
        outcome = result.outcome
        if outcome is SubmitOutcome.QUEUED:
            if self._emit_enabled:
                self._emit(now, "queue", job, pool_id=job.pool_id)
            self._arm_wait_timer(job, now)
            return ()
        if outcome is SubmitOutcome.INELIGIBLE:
            if self.config.strict:
                raise UnschedulableJobError(job.job_id)
            job.reject(now)
            self._emit(now, "reject", job)
            self._record_rejection(job)
            return ()
        if self._emit_enabled:
            self._emit(now, "start", job, pool_id=job.pool_id)
            for victim in result.victims:
                self._emit(
                    now, "suspend", victim, pool_id=victim.pool_id,
                    detail=f"preempted-by={job.job_id}",
                )
        self._schedule_finish(job, now)
        return result.victims

    def _submit_to(self, job: Job, pool_id: str, now: float) -> Tuple[Job, ...]:
        """Submit a rescheduled job to ``pool_id``; returns its victims.

        Policies only get targets the job is statically eligible in, so
        an ineligible outcome here is an engine fault, not a rejection.
        """
        result = self.pools[pool_id].submit(job, now)
        if result.outcome is SubmitOutcome.INELIGIBLE:
            raise SchedulingError(
                f"job {job.job_id} was rescheduled to pool {pool_id} "
                f"where it is statically ineligible"
            )
        return self._after_placement(job, result, now)

    def _schedule_finish(self, job: Job, now: float) -> None:
        speed = job.machine.spec.speed_factor
        duration = job.remaining_minutes() / speed
        if self._faults is not None:
            fail_after = self._faults.roll_segment_failure(duration)
            if fail_after is not None:
                self._events.push(now + fail_after, EVENT_JOB_FAILURE, (job, job.epoch))
                return
        self._events.push(now + duration, EVENT_FINISH, (job, job.epoch))

    def _arm_wait_timer(self, job: Job, now: float) -> None:
        threshold = self.policy.wait_threshold
        if threshold is not None:
            self._events.push(
                now + threshold, EVENT_WAIT_TIMEOUT, (job, job.wait_episode)
            )

    def _process_victims(self, victims: Tuple[Job, ...], now: float) -> None:
        """Run the policy's suspension hook over a preemption's victims.

        Restarted victims may preempt lower-priority jobs at their
        target pool; the resulting second-order victims are processed
        from the same work queue.  Chains terminate because priorities
        strictly decrease along them.
        """
        pending: Deque[Job] = deque(victims)
        while pending:
            victim = pending.popleft()
            # Handling an earlier victim can release capacity that
            # resumes this one before its turn; only still-suspended
            # jobs go to the policy.
            if victim.state is not JobState.SUSPENDED:
                continue
            decision = self.policy.on_suspend(victim, self.view)
            if self._telemetry is not None:
                self._telemetry.count_policy_decision(
                    self.policy.name, decision.action.value
                )
            if decision.action is Action.FRACTION:
                # FRACTION never moves the job, so it is handled before
                # target validation (which would degrade it to STAY).
                self._grant_fraction(victim, decision.share, now)
                continue
            target = self._validated_target(victim, decision)
            if target is None:
                continue
            if decision.action is Action.RESTART:
                origin_id = victim.pool_id
                origin = self.pools[origin_id]
                machine = origin.detach_suspended(victim, now)
                if self._emit_enabled:
                    self._emit(
                        now, "restart", victim, pool_id=target,
                        detail=f"from={origin_id}",
                    )
                self._fill(origin, machine, now)
                new_victims = self._move_to_pool(victim, target, now, origin=origin_id)
            elif decision.action is Action.MIGRATE:
                origin_id = victim.pool_id
                origin = self.pools[origin_id]
                machine = origin.detach_suspended(
                    victim, now, preserve_progress=True
                )
                self._fill(origin, machine, now)
                victim.dilate_remaining(self.config.migration_dilation)
                if self._emit_enabled:
                    self._emit(
                        now, "migrate", victim, pool_id=target,
                        detail=f"from={origin_id}",
                    )
                new_victims = self._move_to_pool(
                    victim,
                    target,
                    now,
                    overhead=self.config.migration_overhead,
                    origin=origin_id,
                )
            else:  # Action.DUPLICATE
                # At most one live duplicate per logical job, and never
                # a duplicate of a duplicate: a second suspension of a
                # job that already has a shadow degrades to STAY.
                if victim.is_shadow or victim.job_id in self._dup_partner:
                    continue
                shadow = self._make_shadow(victim)
                if self._emit_enabled:
                    self._emit(
                        now, "duplicate", victim, pool_id=target,
                        detail=f"shadow={shadow.job_id}",
                    )
                new_victims = self._move_to_pool(shadow, target, now)
            pending.extend(new_victims)

    def _grant_fraction(self, job: Job, share: float, now: float) -> None:
        """Let a suspended job keep running at ``share`` of its host's speed.

        The job stays SUSPENDED and resident (its preemptor holds the
        cores); it merely keeps accruing progress at
        ``share * speed_factor`` (see :meth:`Job._accrue_fractional`).
        The fractional completion is scheduled against the job's
        current epoch: a resume, restart or fault bumps the epoch and
        invalidates it, and the follow-up segment reschedules from the
        fractionally advanced progress.  Fault segment failures are not
        rolled for fractional segments — the attempt's fault exposure
        stays tied to its running segments, and a machine crash still
        kills the resident job through the eviction path.
        """
        job.fractional_share = share
        if self._emit_enabled:
            self._emit(
                now, "fraction", job, pool_id=job.pool_id,
                detail=f"share={share:g}",
            )
        speed = share * job.machine.spec.speed_factor
        self._events.push(
            now + job.remaining_minutes() / speed, EVENT_FINISH, (job, job.epoch)
        )

    def _move_to_pool(
        self, job: Job, target: str, now: float, overhead=None, origin=None
    ) -> Tuple[Job, ...]:
        """Send a PENDING job to ``target``, honouring move overhead.

        ``overhead`` defaults to the restart-overhead model; migrations
        pass the migration model instead.  Topology-aware overhead
        models (inter-site transfers) receive the origin pool via
        ``delay_between`` when they define it.  Returns any jobs
        suspended by the move (empty when the move is delayed by
        overhead; those victims surface when the arrival event fires).
        """
        if overhead is None:
            overhead = self.config.restart_overhead
        delay_between = getattr(overhead, "delay_between", None)
        if delay_between is not None and origin is not None:
            delay = delay_between(job.spec, origin, target)
        else:
            delay = overhead.delay_for(job.spec)
        if delay > 0:
            self._events.push(now + delay, EVENT_POOL_ARRIVAL, (job, target))
            return ()
        return self._submit_to(job, target, now)

    def _validated_target(self, job: Job, decision: Decision) -> Optional[str]:
        """The decision's target pool, or ``None`` if the job should stay.

        A target is only honoured when it differs from the job's
        current pool and the job is statically eligible there; anything
        else degrades to STAY, so a misbehaving policy cannot corrupt
        the simulation.
        """
        if not decision.moves:
            return None
        target = decision.target_pool
        if target == job.pool_id:
            return None
        if target not in self.eligible_candidates(job.spec):
            return None
        if self._faults is not None and not self.pools[target].up:
            return None
        return target

    def _make_shadow(self, original: Job) -> Job:
        """Create the duplicate attempt for ``original`` and link the pair."""
        shadow_spec = replace(original.spec, job_id=next(self._shadow_ids))
        shadow = Job(shadow_spec, is_shadow=True)
        shadow.shadow_of = original.job_id
        # Shadows materialise mid-simulation: their accounting clock
        # starts now, not at the original submission.
        shadow.segment_start = self.now
        self._dup_partner[original.job_id] = shadow
        self._dup_partner[shadow.job_id] = original
        return shadow

    def _cancel_attempt(self, job: Job, now: float) -> None:
        """Tear down the losing attempt of a duplicate pair."""
        if job.state is JobState.PENDING:
            job.cancel(now)  # in transit; the arrival event will see FINISHED
            return
        pool = self.pools[job.pool_id]
        machine = pool.cancel_job(job, now)
        if machine is not None:
            self._fill(pool, machine, now)

    def _fill(self, pool: PhysicalPool, machine: Machine, now: float) -> None:
        """Refill freed capacity and schedule completions for placed jobs."""
        resumable_ids = set(machine.suspended) if self._emit_enabled else ()
        for placed in pool.fill_machine(machine, now):
            if self._emit_enabled:
                kind = "resume" if placed.job_id in resumable_ids else "start"
                self._emit(now, kind, placed, pool_id=pool.pool_id)
            self._schedule_finish(placed, now)

    # -- record building ---------------------------------------------------------------

    def _record_completion(self, winner: Job, partner: Optional[Job], now: float) -> None:
        """Emit the JobRecord for a finished logical job.

        For duplicate pairs the winner may be the shadow; see
        :meth:`_record_attempts`.
        """
        if winner.is_shadow and partner is None:  # pragma: no cover - defensive
            raise SimulationError(
                f"shadow {winner.job_id} finished without a linked original"
            )
        if partner is None:
            # Overwhelmingly common case: a single attempt, no merging.
            spec = winner.spec
            # Positional, in field order: cheaper than keywords.
            record = JobRecord(
                winner.job_id,
                winner.priority,
                spec.submit_minute,
                now,
                spec.runtime_minutes,
                spec.cores,
                spec.memory_gb,
                winner.total_wait,
                winner.total_suspend,
                winner.wasted_restart,
                winner.suspension_count,
                winner.restart_count,
                winner.migration_count,
                winner.waiting_move_count,
                tuple(winner.pools_visited),
                False,
                spec.task_id,
                spec.user,
                winner.machine_failures,
                winner.transient_failures,
            )
            self._add_record(record)
            self._outstanding -= 1
            return
        self._record_attempts(winner, partner, now)

    def _record_failure(self, job: Job, partner: Optional[Job], now: float) -> None:
        """Emit the JobRecord for a permanently failed logical job."""
        self._record_attempts(job, partner, None)
        self._faults.note_permanent_failure()

    def _record_attempts(
        self, job: Job, partner: Optional[Job], finish_minute: Optional[float]
    ) -> None:
        """Emit one JobRecord merging ``job`` and its duplicate ``partner``.

        The record is keyed by the original's identity even when ``job``
        is the shadow.  ``finish_minute`` is ``None`` for a permanent
        failure; a completed pair counts its duplication as one restart.
        """
        attempts = [job] if partner is None else [job, partner]
        identity = partner if partner is not None and job.is_shadow else job
        restarts = sum(a.restart_count for a in attempts)
        if partner is not None and finish_minute is not None:
            restarts += 1
        self._add_record(
            JobRecord(
                job_id=identity.job_id,
                priority=identity.priority,
                submit_minute=identity.spec.submit_minute,
                finish_minute=finish_minute,
                runtime_minutes=identity.spec.runtime_minutes,
                cores=identity.spec.cores,
                memory_gb=identity.spec.memory_gb,
                wait_time=sum(a.total_wait for a in attempts),
                suspend_time=sum(a.total_suspend for a in attempts),
                wasted_restart_time=sum(a.wasted_restart for a in attempts),
                suspension_count=sum(a.suspension_count for a in attempts),
                restart_count=restarts,
                migration_count=sum(a.migration_count for a in attempts),
                waiting_move_count=sum(a.waiting_move_count for a in attempts),
                pools_visited=tuple(
                    dict.fromkeys(p for a in attempts for p in a.pools_visited)
                ),
                rejected=False,
                task_id=identity.spec.task_id,
                user=identity.spec.user,
                machine_failures=sum(a.machine_failures for a in attempts),
                transient_failures=sum(a.transient_failures for a in attempts),
                failed=finish_minute is None,
            )
        )
        self._outstanding -= 1

    def _record_rejection(self, job: Job) -> None:
        self._add_record(
            JobRecord(
                job_id=job.job_id,
                priority=job.priority,
                submit_minute=job.spec.submit_minute,
                finish_minute=None,
                runtime_minutes=job.spec.runtime_minutes,
                cores=job.spec.cores,
                memory_gb=job.spec.memory_gb,
                wait_time=0.0,
                suspend_time=0.0,
                wasted_restart_time=0.0,
                suspension_count=0,
                restart_count=0,
                migration_count=0,
                waiting_move_count=0,
                pools_visited=(),
                rejected=True,
                task_id=job.spec.task_id,
                user=job.spec.user,
            )
        )
        self._outstanding -= 1
