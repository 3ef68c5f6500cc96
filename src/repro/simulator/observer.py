"""Observation of simulation events (ASCA's "logs for post-analysis").

The reference simulator "outputs the results as logs for post-analysis"
(Section 3.1).  Beyond the built-in job records and state samples, some
analyses need the raw event stream — every start, suspension, resume,
restart, move and completion with its timestamp.  An
:class:`EventObserver` subscribed via
:attr:`~repro.telemetry.instrumentation.Instrumentation.observers`
receives each event as it happens; :class:`EventLog` collects them in
memory and :class:`JsonlEventWriter` streams them to disk.

Observation is strictly read-only: observers receive immutable event
tuples, never live simulator objects, so they cannot perturb a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Counter as CounterType
from typing import Dict, List, Optional, TextIO, Tuple, Union
from collections import Counter

__all__ = [
    "SimEvent",
    "EventObserver",
    "EventLog",
    "JsonlEventWriter",
    "EVENT_TYPES",
]

#: The event vocabulary emitted by the engine.
EVENT_TYPES: Tuple[str, ...] = (
    "submit",  # job submitted to its VPM
    "start",  # began executing on a machine
    "suspend",  # preempted (suspended on its host)
    "resume",  # resumed on its host
    "restart",  # abandoned its attempt to restart elsewhere
    "migrate",  # moved with progress preserved
    "dequeue",  # left a wait queue via waiting-job rescheduling
    "queue",  # entered a pool's wait queue
    "duplicate",  # a shadow attempt was launched
    "finish",  # completed
    "reject",  # statically unschedulable everywhere
    "fraction",  # suspended but granted a fractional share of its host
    "fault-defer",  # placement postponed: every eligible pool is dark
    "fault-reroute",  # arrived at a pool that went dark in transit
    "fault-kill",  # running/suspended attempt killed by a crash or outage
    "fault-requeue",  # drained out of a blacked-out pool's wait queue
    "fault-job-failure",  # execution segment lost to a transient failure
    "fault-give-up",  # retry budget exhausted; recorded as failed
)


@dataclass(frozen=True)
class SimEvent:
    """One simulation event.

    Attributes:
        minute: simulated time of the event.
        event: one of :data:`EVENT_TYPES`.
        job_id: the affected job.
        pool_id: pool involved (target pool for moves), if any.
        detail: optional extra context (e.g. the preemptor's job id for
            suspensions, the origin pool for moves).
    """

    minute: float
    event: str
    job_id: int
    pool_id: Optional[str] = None
    detail: Optional[str] = None

    def as_dict(self) -> Dict:
        """A JSON-serialisable representation."""
        record: Dict = {
            "minute": round(self.minute, 4),
            "event": self.event,
            "job_id": self.job_id,
        }
        if self.pool_id is not None:
            record["pool_id"] = self.pool_id
        if self.detail is not None:
            record["detail"] = self.detail
        return record


class EventObserver:
    """Interface for event consumers; the base class ignores everything."""

    def on_event(self, event: SimEvent) -> None:
        """Receive one event (called in simulated-time order)."""

    def close(self) -> None:
        """Called once when the simulation finishes."""


class EventLog(EventObserver):
    """Collects all events in memory.

    Suited to tests and small runs; a year-scale run emits millions of
    events, for which :class:`JsonlEventWriter` is the right sink.
    """

    def __init__(self) -> None:
        self.events: List[SimEvent] = []

    def on_event(self, event: SimEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type: str) -> List[SimEvent]:
        """All events of one type, in order."""
        return [e for e in self.events if e.event == event_type]

    def for_job(self, job_id: int) -> List[SimEvent]:
        """All events affecting one job, in order."""
        return [e for e in self.events if e.job_id == job_id]

    def counts(self) -> CounterType[str]:
        """Event counts by type."""
        return Counter(e.event for e in self.events)


class JsonlEventWriter(EventObserver):
    """Streams events to a JSON Lines file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._handle: Optional[TextIO] = open(self._path, "w", encoding="utf-8")
        self.written = 0

    def on_event(self, event: SimEvent) -> None:
        if self._handle is None:  # pragma: no cover - misuse guard
            raise ValueError(f"writer for {self._path} is closed")
        self._handle.write(json.dumps(event.as_dict()) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def read(path: Union[str, Path]) -> List[SimEvent]:
        """Load events previously written to ``path``."""
        events: List[SimEvent] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                events.append(
                    SimEvent(
                        minute=float(record["minute"]),
                        event=str(record["event"]),
                        job_id=int(record["job_id"]),
                        pool_id=record.get("pool_id"),
                        detail=record.get("detail"),
                    )
                )
        return events
