"""The typed instrumentation aggregate attached to a simulation.

:class:`Instrumentation` names everything that watches a run:
``observers`` (event taps with ``on_event(SimEvent)`` and an optional
``close()``, fanned out in order), an optional ``metrics`` registry
(:mod:`repro.telemetry.hooks` records into it, subscribed as the last
tap) and the ``profile`` switch (:mod:`repro.telemetry.layers`).  It is
strictly read-only: no simulation RNG, no change to any result field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # avoid a runtime cycle with repro.simulator
    from ..simulator.observer import EventObserver
    from .registry import MetricsRegistry

__all__ = ["Instrumentation", "NO_INSTRUMENTATION"]


@dataclass(frozen=True)
class Instrumentation:
    """Everything observing one simulation run.

    Attributes:
        observers: event observers, each receiving every
            :class:`~repro.simulator.observer.SimEvent` in simulated-time
            order; fan-out preserves this tuple's order.
        metrics: registry receiving the engine's quantitative telemetry
            (per-event-type counters, per-pool gauges, duration
            histograms); ``None`` disables metrics collection.
        profile: when True, the run times each engine layer through
            methods swapped for the run and (if ``metrics`` is set)
            exports the layer table into the registry.
    """

    observers: Tuple["EventObserver", ...] = ()
    metrics: Optional["MetricsRegistry"] = None
    profile: bool = False

    def __post_init__(self) -> None:
        observers = tuple(self.observers)
        for obs in observers:
            if not callable(getattr(obs, "on_event", None)):
                raise ConfigurationError(
                    f"observer {obs!r} has no callable on_event(event) method"
                )
        object.__setattr__(self, "observers", observers)
        if self.metrics is not None and not hasattr(self.metrics, "collect"):
            raise ConfigurationError(
                f"metrics must be a MetricsRegistry-like object, got {self.metrics!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether attaching this instrumentation does anything at all."""
        return bool(self.observers) or self.metrics is not None or self.profile


#: The inert default: no observers, no metrics, no profiling.
NO_INSTRUMENTATION = Instrumentation()
