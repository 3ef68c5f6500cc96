"""The engine-facing telemetry surface.

:class:`EngineTelemetry` owns every metric the simulator records.  Its
main input is the event stream: the engine subscribes it as its last
event observer, and :meth:`EngineTelemetry.on_event` counts events and
derives the wait and suspension histograms from them.  Beyond that the
engine calls it for policy decisions, sampler ticks and, once at the
end of a run, queue and fault counters; pools, queues and the fault
injector never see it.  Keeping the metric names, label sets and
bucket edges in one place means exporters and ``repro stats`` can rely
on a stable schema.

All hooks are strictly read-only with respect to the simulation: they
take already-computed values (``count_dispatch`` wraps the engine's
dispatch table for one run), consult no clock and no RNG.

Metric schema (all names prefixed ``repro_``):

==============================================  =========  ==========================
``repro_sim_events_total{event=}``              counter    emitted simulation events
``repro_engine_queue_events_total{kind=}``      counter    engine event-queue pops
``repro_policy_decisions_total{policy=,action=}``  counter  rescheduling-policy decisions
``repro_sim_samples_total``                     counter    sampler ticks
``repro_sim_minutes``                           gauge      final simulated time
``repro_jobs_outstanding``                      gauge      jobs left (0 after a run)
``repro_cluster_utilization``                   gauge      last sampled busy fraction
``repro_pool_busy_cores{pool=}``                gauge      last sampled busy cores
``repro_pool_utilization{pool=}``               gauge      last sampled busy fraction
``repro_pool_waiting_jobs{pool=}``              gauge      last sampled wait-queue depth
``repro_pool_suspended_jobs{pool=}``            gauge      last sampled suspended jobs
``repro_wait_duration_minutes{pool=}``          histogram  completed wait episodes
``repro_suspension_duration_minutes{pool=}``    histogram  completed suspension episodes
``repro_wait_queue_pushes_total{pool=}``        counter    lifetime queue insertions
``repro_wait_queue_peak_depth{pool=}``          gauge      high-water queue depth
``repro_wait_queue_compactions_total{pool=}``   counter    lazy-removal heap rebuilds
==============================================  =========  ==========================

plus, with faults on, the ``repro_fault_*`` families (see
:meth:`EngineTelemetry.finalize`) and, with profiling on,
``repro_engine_layer_calls_total{layer=}``,
``repro_engine_layer_self_seconds_total{layer=}`` and
``repro_engine_wall_seconds`` (see :meth:`EngineTelemetry.record_profile`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from .layers import swap
from .registry import DEFAULT_DURATION_BUCKETS, Histogram, MetricsRegistry

__all__ = ["EngineTelemetry"]

#: Events that end a job's open wait or suspension episode, if it has
#: one (``finish`` ends a fractionally shared suspension).
_EPISODE_ENDS = frozenset(
    ("start", "dequeue", "fault-requeue", "resume", "restart", "migrate", "fault-kill", "finish")
)

#: The ``repro_fault_*`` families, in export order: (name, help, labels).
_FAULT_FAMILIES = (
    ("repro_fault_machine_crashes_total", "Machine-down events", ()),
    ("repro_fault_machine_recoveries_total", "Machine-up events", ()),
    ("repro_fault_pool_outages_total", "Pool blackout windows started", ("pool",)),
    ("repro_fault_attempt_kills_total", "Job attempts killed by faults", ("cause",)),
    ("repro_fault_transient_failures_total", "Execution segments killed by transient failures", ()),
    ("repro_fault_retries_total", "Retries scheduled", ()),
    ("repro_fault_permanent_failures_total", "Jobs that exhausted their retry budget", ()),
    ("repro_fault_lost_work_minutes_total", "Reference-speed minutes of progress lost to faults", ()),
)


class EngineTelemetry:
    """Records one engine run into a :class:`MetricsRegistry`."""

    __slots__ = (
        "registry",
        "_events",
        "_queue_events",
        "_policy_decisions",
        "_samples",
        "_sim_minutes",
        "_outstanding",
        "_cluster_util",
        "_tick_series",
        "_pool_gauges",
        "_wait_hist",
        "_suspend_hist",
        "_episodes",
        "_partners",
        "_kills",
    )

    def __init__(self, registry: MetricsRegistry, pool_ids: Sequence[str]) -> None:
        self.registry = registry
        self._events = registry.counter(
            "repro_sim_events_total",
            "Simulation events emitted, by event type",
            labelnames=("event",),
        )
        self._queue_events = registry.counter(
            "repro_engine_queue_events_total",
            "Engine event-queue pops, by event kind",
            labelnames=("kind",),
        )
        self._policy_decisions = registry.counter(
            "repro_policy_decisions_total",
            "Rescheduling-policy decisions, by policy and action",
            labelnames=("policy", "action"),
        )
        self._samples = registry.counter(
            "repro_sim_samples_total", "State-sampler ticks"
        )
        self._sim_minutes = registry.gauge(
            "repro_sim_minutes", "Simulated minutes elapsed"
        )
        self._outstanding = registry.gauge(
            "repro_jobs_outstanding", "Jobs not yet finished"
        )
        self._cluster_util = registry.gauge(
            "repro_cluster_utilization", "Cluster-wide busy-core fraction at last sample"
        )
        # Sampled series are resolved once, not per tick: unlabelled ones
        # at the first tick (no samples, no series); per-pool ones here,
        # so exports list every pool in cluster order even if idle.
        self._tick_series = None
        pool_gauges = [
            registry.gauge(name, help_text, labelnames=("pool",))
            for name, help_text in (
                ("repro_pool_busy_cores", "Busy cores at last sample"),
                ("repro_pool_utilization", "Busy-core fraction at last sample"),
                ("repro_pool_waiting_jobs", "Wait-queue depth at last sample"),
                ("repro_pool_suspended_jobs", "Suspended jobs at last sample"),
            )
        ]
        self._wait_hist = registry.histogram(
            "repro_wait_duration_minutes",
            "Completed wait-queue episodes (minutes)",
            labelnames=("pool",),
            buckets=DEFAULT_DURATION_BUCKETS,
        )
        self._suspend_hist = registry.histogram(
            "repro_suspension_duration_minutes",
            "Completed suspension episodes (minutes)",
            labelnames=("pool",),
            buckets=DEFAULT_DURATION_BUCKETS,
        )
        self._pool_gauges = tuple(
            tuple(gauge.labels(pool_id) for gauge in pool_gauges) for pool_id in pool_ids
        )
        # A job waits or is suspended, never both: its one open episode
        # by job id, as (histogram, pool, start minute).
        self._episodes: Dict[int, Tuple[Histogram, str, float]] = {}
        # Live duplicate pairs, linked both ways by job id.
        self._partners: Dict[int, int] = {}
        # Fault kills by cause, in first-kill order.
        self._kills: Dict[str, int] = {}

    # -- engine hooks -------------------------------------------------------------

    def on_event(self, event) -> None:
        """One emitted :class:`~repro.simulator.observer.SimEvent`.

        Counts it, and keeps the episode histograms: ``queue`` and
        ``suspend`` open an episode in the event's pool, and the event
        that ends it observes its length.  A ``finish`` also ends the
        episode of its duplicate partner, which the engine cancels.
        """
        kind = event.event
        self._events.labels(kind).inc()
        job_id = event.job_id
        if kind == "queue":
            self._episodes[job_id] = (self._wait_hist, event.pool_id, event.minute)
        elif kind == "suspend":
            self._episodes[job_id] = (self._suspend_hist, event.pool_id, event.minute)
        elif kind in _EPISODE_ENDS:
            self._end_episode(job_id, event.minute)
            if kind == "finish":
                partner = self._partners.pop(job_id, None)
                if partner is not None:
                    del self._partners[partner]
                    self._end_episode(partner, event.minute)
            elif kind == "fault-kill":
                self._kills[event.detail] = self._kills.get(event.detail, 0) + 1
        elif kind == "duplicate":
            shadow = int(event.detail[len("shadow="):])
            self._partners[job_id] = shadow
            self._partners[shadow] = job_id
        elif kind == "fault-give-up":
            partner = self._partners.pop(job_id, None)
            if partner is not None:
                del self._partners[partner]

    def _end_episode(self, job_id: int, minute: float) -> None:
        """Observe ``job_id``'s open episode, if it has one, as ending at ``minute``."""
        episode = self._episodes.pop(job_id, None)
        if episode is not None:
            histogram, pool_id, start = episode
            histogram.labels(pool_id).observe(minute - start)

    def count_dispatch(self, engine, kind_names: Mapping[int, str], stack) -> None:
        """Count ``engine``'s handler calls by event kind until ``stack`` unwinds."""
        count = self._queue_events.labels

        def counted(name: str, handler):
            series = []  # resolved on the first call, so unseen kinds export nothing

            def dispatch(payload, now: float) -> None:
                if not series:
                    series.append(count(name))
                series[0].inc()
                handler(payload, now)

            return dispatch

        table = tuple(counted(kind_names[kind], h) for kind, h in enumerate(engine._dispatch))
        swap(stack, engine, "_dispatch", table)

    def count_policy_decision(self, policy_name: str, action: str) -> None:
        """One rescheduling decision (on_suspend / on_wait_timeout)."""
        self._policy_decisions.labels(policy_name, action).inc()

    def on_sample(
        self,
        now: float,
        ticks: int,
        outstanding: int,
        total_cores: int,
        per_pool_busy: Sequence[int],
        per_pool_total: Sequence[int],
        per_pool_waiting: Sequence[int],
        per_pool_suspended: Sequence[int],
    ) -> None:
        """Count ``ticks`` sampler ticks that all carried this state, the
        last at ``now``, and refresh the sampled gauges (pools in the
        order given to ``__init__``)."""
        if self._tick_series is None:
            unlabelled = (self._samples, self._sim_minutes, self._outstanding, self._cluster_util)
            self._tick_series = tuple(metric.labels() for metric in unlabelled)
        samples, sim_minutes, jobs_outstanding, cluster_util = self._tick_series
        samples.inc(ticks)
        sim_minutes.set(now)
        jobs_outstanding.set(outstanding)
        busy = 0
        for gauges, pool_busy, pool_total, waiting, suspended in zip(
            self._pool_gauges, per_pool_busy, per_pool_total, per_pool_waiting, per_pool_suspended
        ):
            busy_g, util_g, waiting_g, suspended_g = gauges
            busy += pool_busy
            busy_g.set(pool_busy)
            util_g.set(pool_busy / pool_total if pool_total else 0.0)
            waiting_g.set(waiting)
            suspended_g.set(suspended)
        cluster_util.set(busy / total_cores if total_cores else 0.0)

    # -- end-of-run ---------------------------------------------------------------

    def finalize(
        self,
        now: float,
        outstanding: int,
        pool_ids: Sequence[str],
        queue_stats,
        faults=None,
    ) -> None:
        """Record end-of-run facts: final clock, fault and queue counters.

        Args:
            now: final simulated minute.
            outstanding: jobs still unfinished (0 for a completed run).
            pool_ids: cluster pool order.
            queue_stats: mapping pool id -> that pool's
                :class:`~repro.simulator.queues.QueueStats`.
            faults: the run's :class:`~repro.faults.FaultInjector`, or
                ``None`` when faults are off (no ``repro_fault_*``
                families are registered then).
        """
        self._sim_minutes.set(now)
        self._outstanding.set(outstanding)
        if faults is not None:
            self._record_faults(faults)
        pushes = self.registry.counter(
            "repro_wait_queue_pushes_total",
            "Lifetime wait-queue insertions",
            labelnames=("pool",),
        )
        peak = self.registry.gauge(
            "repro_wait_queue_peak_depth",
            "High-water wait-queue depth over the run",
            labelnames=("pool",),
        )
        compactions = self.registry.counter(
            "repro_wait_queue_compactions_total",
            "Lazy-removal heap compactions",
            labelnames=("pool",),
        )
        for pool_id in pool_ids:
            stats = queue_stats[pool_id]
            pushes.labels(pool_id).inc(stats.pushes)
            peak.labels(pool_id).set(stats.peak_depth)
            compactions.labels(pool_id).inc(stats.compactions)

    def _record_faults(self, faults) -> None:
        """Publish the injector's counters as the ``repro_fault_*`` families.

        A series exists only once its counter has moved, as if it had
        been incremented fault by fault.
        """

        def total(count):
            return {(): count} if count else {}

        values = (
            total(faults.machine_crashes),
            total(faults.machine_recoveries),
            {(pool_id,): count for pool_id, count in faults.outages.items()},
            {(cause,): count for cause, count in self._kills.items()},
            total(faults.transient_failures),
            total(faults.retries_scheduled),
            total(faults.permanent_failures),
            {(): faults.lost_work_minutes}
            if faults.attempts_killed or faults.transient_failures
            else {},
        )
        for (name, help_text, labelnames), series in zip(_FAULT_FAMILIES, values):
            family = self.registry.counter(name, help_text, labelnames=labelnames)
            for labels, value in series.items():
                family.labels(*labels).inc(value)

    def record_profile(self, report) -> None:
        """Publish a :class:`~repro.telemetry.layers.ProfileReport`."""
        calls = self.registry.counter(
            "repro_engine_layer_calls_total", "Calls into each engine layer", labelnames=("layer",)
        )
        seconds = self.registry.counter(
            "repro_engine_layer_self_seconds_total",
            "Wall-clock seconds in each engine layer outside its sub-layers",
            labelnames=("layer",),
        )
        for layer, layer_calls, self_seconds in report.layers:
            calls.labels(layer).inc(layer_calls)
            seconds.labels(layer).inc(self_seconds)
        self.registry.gauge(
            "repro_engine_wall_seconds", "Wall-clock seconds the engine run took"
        ).set(report.wall_seconds)
