"""Opt-in wall-clock profiling of the engine's event handlers.

The engine's run loop is a dispatch over eleven event kinds (submit,
finish, wait-timeout, pool-arrival, sample, and the six fault kinds).
When :attr:`~repro.telemetry.instrumentation.Instrumentation.profile`
is set, the engine wraps every handler to time each invocation with
``time.perf_counter`` and feed the deltas here; the profiler reduces
them to per-handler totals and an overall events/sec figure — the
"where does engine time go" answer the ROADMAP's as-fast-as-the-
hardware-allows goal needs before any optimisation work.

Profiling is observational only: it reads the wall clock but never the
simulation clock or RNG, so enabling it cannot change simulated
results (the measured numbers themselves are of course run-dependent
wall-clock quantities and are excluded from any determinism
comparison).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["EngineProfiler", "HandlerStats", "ProfileReport"]


@dataclass(frozen=True)
class HandlerStats:
    """Aggregate timing of one event-handler branch."""

    handler: str
    events: int
    seconds: float

    @property
    def mean_micros(self) -> float:
        """Mean handler latency in microseconds."""
        return (self.seconds / self.events) * 1e6 if self.events else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """The profiler's reduced output for one finished run."""

    handlers: Tuple[HandlerStats, ...]
    wall_seconds: float

    @property
    def total_events(self) -> int:
        """Events handled across all branches."""
        return sum(h.events for h in self.handlers)

    @property
    def events_per_second(self) -> float:
        """Overall engine throughput (events handled / wall seconds)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_events / self.wall_seconds

    def render(self) -> str:
        """A plain-text table for CLI output."""
        lines = [
            f"{'handler':<14} {'events':>10} {'seconds':>9} {'mean us':>9}",
            "-" * 45,
        ]
        for stats in sorted(self.handlers, key=lambda h: -h.seconds):
            lines.append(
                f"{stats.handler:<14} {stats.events:>10} "
                f"{stats.seconds:>9.3f} {stats.mean_micros:>9.1f}"
            )
        lines.append(
            f"total: {self.total_events} events in {self.wall_seconds:.3f}s "
            f"wall ({self.events_per_second:,.0f} events/sec)"
        )
        return "\n".join(lines)


class EngineProfiler:
    """Accumulates per-handler wall-clock timings for one engine run."""

    __slots__ = ("_seconds", "_events", "_run_start", "wall_seconds")

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._events: Dict[str, int] = {}
        self._run_start: Optional[float] = None
        self.wall_seconds = 0.0

    def start(self) -> None:
        """Mark the start of the run loop."""
        self._run_start = time.perf_counter()

    def stop(self) -> None:
        """Mark the end of the run loop."""
        if self._run_start is not None:
            self.wall_seconds = time.perf_counter() - self._run_start

    def record(self, handler: str, seconds: float) -> None:
        """Fold one handler invocation into the totals."""
        self._seconds[handler] = self._seconds.get(handler, 0.0) + seconds
        self._events[handler] = self._events.get(handler, 0) + 1

    def report(self) -> ProfileReport:
        """Reduce the accumulated timings into a :class:`ProfileReport`."""
        handlers: List[HandlerStats] = [
            HandlerStats(handler=name, events=self._events[name], seconds=total)
            for name, total in self._seconds.items()
        ]
        return ProfileReport(handlers=tuple(handlers), wall_seconds=self.wall_seconds)

    def export_to(self, registry) -> None:
        """Publish the report into a metrics registry.

        Emits ``repro_engine_handler_seconds_total`` /
        ``repro_engine_handler_events_total`` (labelled by handler) and
        the ``repro_engine_events_per_second`` /
        ``repro_engine_wall_seconds`` gauges.
        """
        report = self.report()
        seconds = registry.counter(
            "repro_engine_handler_seconds_total",
            "Wall-clock seconds spent in each engine event handler",
            labelnames=("handler",),
        )
        events = registry.counter(
            "repro_engine_handler_events_total",
            "Events dispatched to each engine event handler",
            labelnames=("handler",),
        )
        for stats in report.handlers:
            seconds.labels(stats.handler).inc(stats.seconds)
            events.labels(stats.handler).inc(stats.events)
        registry.gauge(
            "repro_engine_events_per_second",
            "Engine throughput over the whole run (events handled per wall second)",
        ).set(report.events_per_second)
        registry.gauge(
            "repro_engine_wall_seconds",
            "Wall-clock seconds the engine run loop took",
        ).set(report.wall_seconds)
