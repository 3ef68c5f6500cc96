"""Google cluster-trace (task_events) streaming adapter.

The 2011 Google cluster trace ships task lifecycles as a CSV of
*events* — one row per state transition, ordered by event timestamp —
in the ``task_events`` table (13 columns, timestamps in microseconds).
A task's execution is reconstructed by pairing its ``SUBMIT``,
``SCHEDULE`` and terminal (``FINISH``/``FAIL``/``KILL``/``LOST``)
events.  That pairing is the interesting part for constant-memory
replay: a task *finishes* long after it was submitted, so an
event-ordered file cannot be emitted submit-ordered without buffering —
but only the **in-flight** tasks need buffering, never the whole trace.

:func:`iter_google_tasks` does exactly that: it keeps one small entry
per unfinished task plus a heap of finished-but-unemitted tasks, and
releases a finished task only once the *watermark* (the earliest submit
time any still-pending task could complete with) has passed its submit
time.  The yielded stream is therefore sorted by submission time —
the order :func:`repro.simulator.simulation.run_streaming` requires —
while peak memory stays proportional to trace concurrency, not length.

Column reference (``task_events`` schema, 0-based):

==  ============================  ==  ============================
 0  timestamp (microseconds)       7  scheduling class
 1  missing info                   8  priority
 2  job ID                         9  CPU request (fraction)
 3  task index                    10  memory request (fraction)
 4  machine ID                    11  disk space request
 5  event type                    12  different machines restriction
 6  user (opaque hash)
==  ============================  ==  ============================
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

from ...errors import TraceError

__all__ = [
    "GOOGLE_FIELD_COUNT",
    "GoogleTask",
    "iter_google_tasks",
    "EVENT_SUBMIT",
    "EVENT_SCHEDULE",
    "EVENT_EVICT",
    "EVENT_FAIL",
    "EVENT_FINISH",
    "EVENT_KILL",
    "EVENT_LOST",
]

#: A task_events row always carries exactly this many columns.
GOOGLE_FIELD_COUNT = 13

#: task_events event-type values.
EVENT_SUBMIT = 0
EVENT_SCHEDULE = 1
EVENT_EVICT = 2
EVENT_FAIL = 3
EVENT_FINISH = 4
EVENT_KILL = 5
EVENT_LOST = 6
EVENT_UPDATE_PENDING = 7
EVENT_UPDATE_RUNNING = 8

#: Event types that end a task's lifecycle for replay purposes.  EVICT
#: is *not* terminal: an evicted task is rescheduled and its runtime
#: extends to the eventual terminal event, which matches how the
#: simulator charges suspension/restart time rather than splitting jobs.
_TERMINAL_EVENTS = frozenset((EVENT_FINISH, EVENT_FAIL, EVENT_KILL, EVENT_LOST))

Source = Union[str, Path, IO[str]]


@dataclass(frozen=True)
class GoogleTask:
    """One reconstructed task execution (paired SUBMIT..terminal span)."""

    job_id: int
    task_index: int
    submit_us: int
    schedule_us: int
    end_us: int
    end_event: int
    user: str
    scheduling_class: int
    priority: int
    cpu_request: float
    memory_request: float

    @property
    def runtime_us(self) -> int:
        """Wall-clock from first schedule to terminal event."""
        return self.end_us - self.schedule_us

    @property
    def wait_us(self) -> int:
        """Queueing delay from submission to first schedule."""
        return self.schedule_us - self.submit_us


class _Pending:
    """Mutable per-task state while its lifecycle is still open."""

    __slots__ = (
        "submit_us",
        "schedule_us",
        "user",
        "scheduling_class",
        "priority",
        "cpu_request",
        "memory_request",
    )

    def __init__(
        self,
        submit_us: int,
        user: str,
        scheduling_class: int,
        priority: int,
        cpu_request: float,
        memory_request: float,
    ) -> None:
        self.submit_us = submit_us
        self.schedule_us: Optional[int] = None
        self.user = user
        self.scheduling_class = scheduling_class
        self.priority = priority
        self.cpu_request = cpu_request
        self.memory_request = memory_request


def _float_or(value: str, default: float) -> float:
    return float(value) if value else default


T = TypeVar("T")


def iter_google_tasks(
    source: Source,
    stats: Optional[Dict[str, int]] = None,
    project: Optional[Callable[[GoogleTask], T]] = None,
) -> Iterator[Union[GoogleTask, T]]:
    """Yield completed :class:`GoogleTask` spans sorted by submit time.

    ``source`` is a path or text stream of a ``task_events`` CSV (no
    header row, per the trace format).  Rows must be non-decreasing in
    timestamp — the published trace guarantees it, and a violation
    raises :class:`~repro.errors.TraceError` because the watermark
    logic (and any notion of "in-flight") is meaningless without it.

    Tasks still open at end-of-file (submitted or running but never
    terminated inside the captured window) are dropped; pass ``stats``
    to receive ``{"emitted", "dropped_open", "dropped_unscheduled"}``
    counts for reporting.

    ``project``, when given, maps each task as its terminal row is read,
    and the mapped values are yielded in the same order; an
    ``OverflowError`` it raises (a timestamp too large for a float)
    becomes a :class:`~repro.errors.TraceError` naming ``file:line`` of
    that row.
    """
    pending: Dict[Tuple[int, int], _Pending] = {}
    # Lazy-deletion heap over pending submit times: the top entry is
    # valid only while its key is still pending with the same submit.
    pending_heap: List[Tuple[int, Tuple[int, int]]] = []
    ready: List[Tuple[int, int, Union[GoogleTask, T]]] = []
    seq = 0
    emitted = 0
    dropped_unscheduled = 0

    if isinstance(source, (str, Path)):
        handle: IO[str] = open(source, "r", encoding="utf-8", newline="")
        should_close = True
    else:
        handle, should_close = source, False
    name = getattr(handle, "name", "<task_events>")

    def min_pending_submit() -> Optional[int]:
        while pending_heap:
            submit_us, key = pending_heap[0]
            entry = pending.get(key)
            if entry is not None and entry.submit_us == submit_us:
                return submit_us
            heapq.heappop(pending_heap)
        return None

    try:
        last_ts = None
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if len(row) != GOOGLE_FIELD_COUNT:
                raise TraceError(
                    f"{name}:{line_number}: task_events row has {len(row)} "
                    f"columns, expected {GOOGLE_FIELD_COUNT}"
                )
            try:
                ts = int(row[0])
                job_id = int(row[2])
                task_index = int(row[3])
                event_type = int(row[5])
            except ValueError as exc:
                raise TraceError(
                    f"{name}:{line_number}: non-numeric task_events field ({exc})"
                ) from None
            if last_ts is not None and ts < last_ts:
                raise TraceError(
                    f"{name}:{line_number}: task_events timestamps regress "
                    f"({ts} after {last_ts}); the file must be event-time ordered"
                )
            last_ts = ts
            key = (job_id, task_index)

            if event_type == EVENT_SUBMIT:
                # A re-submit after eviction keeps the original entry
                # (and its original submit time).
                if key not in pending:
                    try:
                        entry = _Pending(
                            ts,
                            row[6],
                            int(row[7]) if row[7] else 0,
                            int(row[8]) if row[8] else 0,
                            _float_or(row[9], 0.0),
                            _float_or(row[10], 0.0),
                        )
                    except ValueError as exc:
                        raise TraceError(
                            f"{name}:{line_number}: non-numeric task_events "
                            f"field ({exc})"
                        ) from None
                    if not math.isfinite(entry.cpu_request) or not math.isfinite(entry.memory_request):
                        raise TraceError(
                            f"{name}:{line_number}: non-finite task_events cpu/memory "
                            f"request ({row[9]}, {row[10]})"
                        )
                    pending[key] = entry
                    heapq.heappush(pending_heap, (ts, key))
            elif event_type == EVENT_SCHEDULE:
                entry = pending.get(key)
                if entry is not None and entry.schedule_us is None:
                    entry.schedule_us = ts
            elif event_type in _TERMINAL_EVENTS:
                entry = pending.pop(key, None)
                if entry is None:
                    continue
                if entry.schedule_us is None:
                    # Killed while queued: it never ran, nothing to replay.
                    dropped_unscheduled += 1
                    continue
                task = GoogleTask(
                    job_id=job_id,
                    task_index=task_index,
                    submit_us=entry.submit_us,
                    schedule_us=entry.schedule_us,
                    end_us=ts,
                    end_event=event_type,
                    user=entry.user,
                    scheduling_class=entry.scheduling_class,
                    priority=entry.priority,
                    cpu_request=entry.cpu_request,
                    memory_request=entry.memory_request,
                )
                item = task
                if project is not None:
                    try:
                        item = project(task)
                    except OverflowError as exc:
                        raise TraceError(
                            f"{name}:{line_number}: task_events value out of "
                            f"float range ({exc})"
                        ) from None
                heapq.heappush(ready, (task.submit_us, seq, item))
                seq += 1
            # EVICT and UPDATE_* rows carry no replay information here.

            # Release every finished task whose submit time the
            # watermark has passed: no still-pending task can produce
            # an earlier-submitted span any more.
            floor = min_pending_submit()
            watermark = ts if floor is None else min(ts, floor)
            while ready and ready[0][0] <= watermark:
                emitted += 1
                yield heapq.heappop(ready)[2]
    finally:
        if should_close:
            handle.close()

    while ready:
        emitted += 1
        yield heapq.heappop(ready)[2]

    if stats is not None:
        stats["emitted"] = emitted
        stats["dropped_open"] = len(pending)
        stats["dropped_unscheduled"] = dropped_unscheduled
