"""Discrete-event machinery.

The engine's event queue is a *calendar queue*: events are hashed into
fixed-width time buckets (a dict keyed by ``int(time / width)``), each
bucket kept unsorted until the clock reaches it, then sorted once in a
single C-speed ``list.sort`` and consumed in order.  Pushes into the
active bucket use ``bisect.insort``.  This replaces the classic single
binary heap (kept as :class:`HeapEventQueue` for differential testing):
pops are O(1) amortised instead of O(log n), and a year-scale bulk load
never pays per-event heap comparisons.

Events are ``(time, seq, kind, payload)`` tuples.  ``seq`` is a
monotonically increasing tie-breaker, so events at equal times fire in
scheduling order and ordering never compares payloads.  Because buckets
partition the time axis and every bucket is sorted by ``(time, seq)``
before consumption, the calendar queue pops in **exactly** the order
the heap implementation did — ``tests/test_events.py`` replays large
randomized mixed schedules against both implementations to prove it.

Event kinds are plain ints for speed; the engine dispatches on them
through a handler table.

Stale events are handled by *versioning*, not by removal: completion
events carry the job's ``epoch`` and wait-timeout events its
``wait_episode``; handlers drop events whose version no longer matches.
This keeps all queue operations cheap with no bookkeeping of handles.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SimulationError

__all__ = [
    "EventQueue",
    "CalendarEventQueue",
    "HeapEventQueue",
    "EVENT_SUBMIT",
    "EVENT_FINISH",
    "EVENT_WAIT_TIMEOUT",
    "EVENT_POOL_ARRIVAL",
    "EVENT_SAMPLE",
    "EVENT_MACHINE_CRASH",
    "EVENT_MACHINE_RECOVER",
    "EVENT_POOL_DOWN",
    "EVENT_POOL_UP",
    "EVENT_JOB_FAILURE",
    "EVENT_JOB_RETRY",
    "EVENT_NAMES",
]

#: A job is submitted to its virtual pool manager.  Payload: Job.
EVENT_SUBMIT = 0
#: A running job's completion time arrives.  Payload: (Job, epoch).
EVENT_FINISH = 1
#: A waiting job's threshold check fires.  Payload: (Job, wait_episode).
EVENT_WAIT_TIMEOUT = 2
#: A rescheduled job arrives at its target pool.  Payload: (Job, pool_id).
EVENT_POOL_ARRIVAL = 3
#: The per-minute state sampler ticks.  Payload: None.
EVENT_SAMPLE = 4
#: A machine dies (fault injection).  Payload: (pool_id, Machine).
EVENT_MACHINE_CRASH = 5
#: A dead machine comes back (fault injection).  Payload: (pool_id, Machine).
EVENT_MACHINE_RECOVER = 6
#: A pool blackout window opens (fault injection).  Payload: pool_id.
EVENT_POOL_DOWN = 7
#: A pool blackout window closes (fault injection).  Payload: pool_id.
EVENT_POOL_UP = 8
#: A running job's execution segment dies (fault injection).
#: Payload: (Job, epoch).
EVENT_JOB_FAILURE = 9
#: A failed or orphaned job re-enters placement.  Payload: Job.
EVENT_JOB_RETRY = 10

EVENT_NAMES = {
    EVENT_SUBMIT: "submit",
    EVENT_FINISH: "finish",
    EVENT_WAIT_TIMEOUT: "wait-timeout",
    EVENT_POOL_ARRIVAL: "pool-arrival",
    EVENT_SAMPLE: "sample",
    EVENT_MACHINE_CRASH: "machine-crash",
    EVENT_MACHINE_RECOVER: "machine-recover",
    EVENT_POOL_DOWN: "pool-down",
    EVENT_POOL_UP: "pool-up",
    EVENT_JOB_FAILURE: "job-failure",
    EVENT_JOB_RETRY: "job-retry",
}

Event = Tuple[float, int, int, Any]

#: Default bucket width in simulated minutes when no bulk load chose one.
DEFAULT_BUCKET_WIDTH = 16.0

#: Target mean events per bucket when sizing the calendar from a bulk load.
_TARGET_BUCKET_OCCUPANCY = 16


class CalendarEventQueue:
    """Bucketed (calendar-queue) event scheduler with FIFO tie-breaking.

    Same contract as :class:`HeapEventQueue` — including bit-identical
    pop order — with O(1) amortised push/pop.  The active bucket is a
    sorted list consumed by cursor; future buckets stay unsorted until
    the clock reaches them.
    """

    __slots__ = (
        "_buckets",
        "_bucket_order",
        "_current",
        "_cursor",
        "_current_idx",
        "_width",
        "_seq",
        "_now",
        "_size",
        "_peek_idx",
        "_peek_time",
    )

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise SimulationError(
                f"calendar bucket width must be > 0, got {bucket_width}"
            )
        # Unsorted future buckets, keyed by int(time / width).
        self._buckets: Dict[int, List[Event]] = {}
        # Min-heap of bucket keys awaiting activation (in sync with
        # ``_buckets``: a key is pushed when its bucket is created and
        # popped exactly when the bucket is activated).
        self._bucket_order: List[int] = []
        # The active bucket, sorted ascending, consumed via ``_cursor``.
        self._current: List[Event] = []
        self._cursor = 0
        self._current_idx = -1
        self._width = bucket_width
        self._seq = 0
        self._now = 0.0
        self._size = 0
        # Memoized (bucket key, earliest time) of the head *future*
        # bucket, maintained by push/activate so the streaming-ingest
        # loop can call peek_time() per iteration in O(1).
        self._peek_idx: Optional[int] = None
        self._peek_time = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event."""
        return self._now

    @property
    def bucket_width(self) -> float:
        """Width of one calendar bucket in simulated minutes."""
        return self._width

    def __len__(self) -> int:
        return self._size

    def push(self, time: float, kind: int, payload: Any = None) -> None:
        """Schedule an event; must not be in the past."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule {EVENT_NAMES.get(kind, kind)} at {time} "
                f"(current time {self._now})"
            )
        entry = (time, self._seq, kind, payload)
        self._seq += 1
        self._size += 1
        idx = int(time / self._width)
        if idx <= self._current_idx:
            # Lands in (or before) the active bucket: keep the sorted
            # invariant.  ``lo=_cursor`` skips the consumed prefix, and
            # any in-tolerance event earlier than remaining entries
            # simply becomes the next pop — exactly what a heap does.
            insort(self._current, entry, lo=self._cursor)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heapq.heappush(self._bucket_order, idx)
            else:
                bucket.append(entry)
            # Keep the head-bucket peek memo exact: a push into the
            # memoized bucket can only lower its earliest time; a push
            # creating an earlier bucket replaces the memo outright.
            peek_idx = self._peek_idx
            if peek_idx is not None:
                if idx == peek_idx:
                    if time < self._peek_time:
                        self._peek_time = time
                elif idx < peek_idx:
                    self._peek_idx = idx
                    self._peek_time = time

    def push_many_unsorted(self, events: List[Tuple[float, int, Any]]) -> None:
        """Bulk-load events (used once, for a trace's submissions).

        Much faster than repeated :meth:`push` for large traces: events
        are hashed straight into their buckets with no per-event
        ordering work at all, and the calendar's bucket width is sized
        from the load's time span so buckets stay near the target
        occupancy.  Only valid while the queue is empty and time is 0.
        """
        if self._size or self._now != 0.0:
            raise SimulationError("bulk load is only allowed into an empty queue at t=0")
        if not events:
            return
        lo = min(e[0] for e in events)
        hi = max(e[0] for e in events)
        span = hi - lo
        count = len(events)
        if span > 0 and count >= 4 * _TARGET_BUCKET_OCCUPANCY:
            self._width = span / (count / _TARGET_BUCKET_OCCUPANCY)
        width = self._width
        buckets = self._buckets
        for index, (time, kind, payload) in enumerate(events):
            if time < 0:
                raise SimulationError(
                    f"cannot schedule {EVENT_NAMES.get(kind, kind)} at {time} "
                    f"(current time {self._now})"
                )
            entry = (time, index, kind, payload)
            idx = int(time / width)
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [entry]
            else:
                bucket.append(entry)
        self._bucket_order = sorted(buckets)
        self._seq = count
        self._size = count

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        cursor = self._cursor
        current = self._current
        size = len(current)
        if cursor >= size:
            self._activate_next_bucket()
            cursor = 0
            current = self._current
            size = len(current)
        event = current[cursor]
        cursor += 1
        if cursor >= size:
            # Bucket consumed: drop the storage so pushes landing back
            # in this (still-current) bucket start from a clean list.
            current.clear()
            cursor = 0
        self._cursor = cursor
        self._size -= 1
        self._now = event[0]
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        if self._cursor < len(self._current):
            return self._current[self._cursor][0]
        if not self._bucket_order:
            return None
        head = self._bucket_order[0]
        if self._peek_idx != head:
            self._peek_idx = head
            self._peek_time = min(self._buckets[head])[0]
        return self._peek_time

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without popping an event.

        Used by the streaming-ingest loop, which processes trace
        submissions outside the queue: before handling a submission at
        minute ``t`` the clock must read ``t``, exactly as it would had
        the submission been a popped event.  Never moves time backwards.
        """
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot advance the clock to {time} (current time {self._now})"
            )
        if time > self._now:
            self._now = time

    def _activate_next_bucket(self) -> None:
        """Sort the earliest pending bucket and make it active."""
        if not self._bucket_order:
            raise SimulationError("pop from an empty event queue")
        idx = heapq.heappop(self._bucket_order)
        bucket = self._buckets.pop(idx)
        bucket.sort()
        self._current = bucket
        self._cursor = 0
        self._current_idx = idx
        if self._peek_idx == idx:
            self._peek_idx = None


class HeapEventQueue:
    """Min-heap of timestamped events with FIFO tie-breaking.

    The original single-heap scheduler, kept as the reference
    implementation: the calendar queue must reproduce its pop order
    bit-for-bit, and the differential tests replay mixed schedules
    against both.
    """

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: int, payload: Any = None) -> None:
        """Schedule an event; must not be in the past."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule {EVENT_NAMES.get(kind, kind)} at {time} "
                f"(current time {self._now})"
            )
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def push_many_unsorted(self, events: List[Tuple[float, int, Any]]) -> None:
        """Bulk-load events (used once, for a trace's submissions).

        Builds the tuples in one pass and heapifies.  Only valid while
        the queue is empty and time is 0.
        """
        if self._heap or self._now != 0.0:
            raise SimulationError("bulk load is only allowed into an empty queue at t=0")
        self._heap = [
            (time, index, kind, payload)
            for index, (time, kind, payload) in enumerate(events)
        ]
        self._seq = len(self._heap)
        heapq.heapify(self._heap)

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        self._now = event[0]
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time: float) -> None:
        """Advance the clock without popping (see :meth:`CalendarEventQueue.advance_to`)."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot advance the clock to {time} (current time {self._now})"
            )
        if time > self._now:
            self._now = time


#: The engine's event queue implementation.
EventQueue = CalendarEventQueue
