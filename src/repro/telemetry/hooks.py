"""The engine-facing telemetry surface.

:class:`EngineTelemetry` owns every metric the simulator records and
exposes the narrow set of hook methods the engine, pools and queues
call.  Keeping the metric names, label sets and bucket edges in one
place (rather than scattered through the engine) means exporters and
``repro stats`` can rely on a stable schema, and the simulator files
only ever see tiny hook calls.

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

plus, with profiling on, ``repro_engine_layer_calls_total{layer=}``,
``repro_engine_layer_self_seconds_total{layer=}`` and
``repro_engine_wall_seconds`` (see :meth:`EngineTelemetry.record_profile`).
The engine subscribes this object as its last event observer.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .layers import swap
from .registry import DEFAULT_DURATION_BUCKETS, MetricsRegistry

__all__ = ["EngineTelemetry"]


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

    # -- engine hooks -------------------------------------------------------------

    def on_event(self, event) -> None:
        """One emitted :class:`~repro.simulator.observer.SimEvent`."""
        self._events.labels(event.event).inc()

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

    # -- pool hooks ---------------------------------------------------------------

    def observe_wait(self, pool_id: str, minutes: float) -> None:
        """One completed wait episode (queue entry to start/dequeue/cancel)."""
        self._wait_hist.labels(pool_id).observe(minutes)

    def observe_suspension(self, pool_id: str, minutes: float) -> None:
        """One completed suspension episode (suspend to resume/detach/cancel)."""
        self._suspend_hist.labels(pool_id).observe(minutes)

    # -- end-of-run ---------------------------------------------------------------

    def finalize(
        self,
        now: float,
        outstanding: int,
        pool_ids: Sequence[str],
        queue_stats,
    ) -> None:
        """Record end-of-run facts: final clock and queue statistics.

        Args:
            now: final simulated minute.
            outstanding: jobs still unfinished (0 for a completed run).
            pool_ids: cluster pool order.
            queue_stats: mapping pool id -> that pool's
                :class:`~repro.simulator.queues.QueueStats`.
        """
        self._sim_minutes.set(now)
        self._outstanding.set(outstanding)
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
