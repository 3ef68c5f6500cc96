"""Priority wait queue with lazy removal, bucketed by requirement signature.

Physical pools queue jobs "waiting for resources to become available"
in priority order (higher priority first), FIFO within a priority
level.  The queue supports the operation waiting-job rescheduling
needs — removing a job from the middle — via lazy invalidation, so
both push and pop stay O(log n).

Storage is sharded into one heap per *requirement signature* — the
``(os_family, cores, memory_gb)`` triple that fully determines whether
a job fits any given machine.  Traces contain few distinct signatures
(tens, against tens of thousands of queued jobs), and machine-fit
predicates are constant across a signature, so the engine's hottest
queue operation — "find the best queued job that fits this machine,
on every capacity release" (:meth:`best_schedulable`) — evaluates the
fit once per signature instead of once per queued job.  A single
global insertion counter spans all shards, so ordering across shards
is exactly the classic single-heap ordering.

Membership is tracked per *entry*, not merely per job object: each
insertion records its global order token, and only the entry carrying
the currently-registered token is valid.  Job identity alone is not
enough — a job that is removed and later re-pushed (wait episodes
repeat across retries and rescheduling) would otherwise leave a stale
entry that passes an identity check and resurrects the job's *old*
queue position, letting it jump the FIFO line and making ``iter_jobs``
yield it twice (which in turn double-removes during pool drains).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import SchedulingError
from .job import Job

__all__ = ["PriorityWaitQueue", "QueueStats"]

#: A signature key: (os_family, cores, memory_gb).
Signature = Tuple[str, int, float]


class QueueStats(NamedTuple):
    """Lifetime statistics of one wait queue (telemetry only).

    Attributes:
        pushes: total insertions over the run.
        peak_depth: high-water number of valid queued jobs.
        compactions: lazy-removal heap rebuilds performed.
    """

    pushes: int
    peak_depth: int
    compactions: int


class PriorityWaitQueue:
    """Max-priority, FIFO-within-priority queue of waiting jobs."""

    __slots__ = (
        "_shards",
        "_valid",
        "members",
        "_pushes",
        "_peak_depth",
        "_compactions",
    )

    def __init__(self) -> None:
        # One lazy-removal heap of (-priority, order, job) per signature.
        self._shards: Dict[Signature, List[Tuple[int, int, Job]]] = {}
        # Valid (non-removed) entry count per shard.
        self._valid: Dict[Signature, int] = {}
        #: Currently queued jobs keyed by id (read-only outside this
        #: class; pools test it for emptiness without a method call).
        #: The value carries the order token of the job's live entry, so
        #: stale entries from earlier wait episodes of the same object
        #: can never validate.
        self.members: Dict[int, Tuple[Job, int]] = {}
        self._pushes = 0
        self._peak_depth = 0
        self._compactions = 0

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, job: Job) -> bool:
        member = self.members.get(job.job_id)
        return member is not None and member[0] is job

    @property
    def storage_size(self) -> int:
        """Total stored entries, including lazily-removed ones."""
        return sum(len(shard) for shard in self._shards.values())

    def push(self, job: Job) -> None:
        """Enqueue ``job`` (must not already be queued here)."""
        if job.job_id in self.members:
            raise SchedulingError(f"job {job.job_id} is already in this wait queue")
        spec = job.spec
        sig = (spec.os_family, spec.cores, spec.memory_gb)
        # The push count doubles as the global insertion order.
        order = self._pushes
        shard = self._shards.get(sig)
        if shard is None:
            self._shards[sig] = [(-job.priority, order, job)]
            self._valid[sig] = 1
        else:
            heapq.heappush(shard, (-job.priority, order, job))
            self._valid[sig] += 1
        self.members[job.job_id] = (job, order)
        self._pushes += 1
        depth = len(self.members)
        if depth > self._peak_depth:
            self._peak_depth = depth

    def _shard_top(self, sig: Signature) -> Optional[Tuple[int, int, Job]]:
        """The shard's best valid entry, discarding stale tops; None if drained."""
        shard = self._shards[sig]
        members = self.members
        while shard:
            entry = shard[0]
            member = members.get(entry[2].job_id)
            # The order token pins the one live entry; identity alone
            # would also match stale entries of a re-pushed job.
            if member is not None and member[1] == entry[1]:
                return entry
            heapq.heappop(shard)
        del self._shards[sig]
        del self._valid[sig]
        return None

    def pop(self) -> Job:
        """Dequeue the highest-priority (oldest within level) job."""
        best_sig = None
        best_entry = None
        for sig in list(self._shards):
            entry = self._shard_top(sig)
            if entry is not None and (best_entry is None or entry < best_entry):
                best_entry = entry
                best_sig = sig
        if best_entry is None:
            raise SchedulingError("pop from an empty wait queue")
        shard = self._shards[best_sig]
        heapq.heappop(shard)
        self._valid[best_sig] -= 1
        if not shard:
            del self._shards[best_sig]
            del self._valid[best_sig]
        job = best_entry[2]
        del self.members[job.job_id]
        return job

    def peek(self) -> Optional[Job]:
        """The job :meth:`pop` would return, or ``None`` if empty."""
        best_entry = None
        for sig in list(self._shards):
            entry = self._shard_top(sig)
            if entry is not None and (best_entry is None or entry < best_entry):
                best_entry = entry
        return None if best_entry is None else best_entry[2]

    def remove(self, job: Job) -> None:
        """Remove ``job`` from anywhere in the queue (lazy)."""
        member = self.members.get(job.job_id)
        if member is None or member[0] is not job:
            raise SchedulingError(f"job {job.job_id} is not in this wait queue")
        del self.members[job.job_id]
        spec = job.spec
        sig = (spec.os_family, spec.cores, spec.memory_gb)
        valid = self._valid[sig] - 1
        self._valid[sig] = valid
        stored = len(self._shards[sig])
        # Rebuild the shard once more than half its entries are stale.
        if stored > 16 and stored > 2 * valid:
            self._compact(sig, valid)

    def best_schedulable(self, machine) -> Optional[Job]:
        """Highest-priority (oldest within level) job that can start on ``machine``.

        ``machine`` is a :class:`~repro.simulator.machine.Machine`; the
        result equals :meth:`best_match` on ``machine.can_start`` applied
        to each job's spec, but costs O(signatures) instead of
        O(queued jobs), with no call per shard: a shard's key is its
        jobs' requirement signature, so the fit is read off the key
        against the machine's free cores, free memory and OS family.
        The static core and memory checks of eligibility are implied,
        because free capacity never exceeds total capacity.  This is
        the pool hot path on every capacity release.

        A shard's stored top, stale or live, orders no later than its
        live top, so it settles "can this shard beat the best so far?"
        before the (popping) validation runs on the few shards left.
        """
        if not machine.up:
            return None
        free_cores = machine.free_cores
        free_memory = machine.free_memory_gb
        os_family = machine.spec.os_family
        shards = self._shards
        best_entry = None
        # Over a copy of the keys: ``_shard_top`` drops a drained shard.
        for sig in list(shards):
            if sig[1] > free_cores or sig[2] > free_memory or sig[0] != os_family:
                continue
            if best_entry is not None and best_entry < shards[sig][0]:
                continue
            entry = self._shard_top(sig)
            if entry is not None and (best_entry is None or entry < best_entry):
                best_entry = entry
        return None if best_entry is None else best_entry[2]

    def best_match(self, predicate: Callable[[Job], bool]) -> Optional[Job]:
        """Highest-priority (oldest within level) job satisfying ``predicate``.

        Non-destructive O(n) scan over all stored entries; ``predicate``
        may be arbitrary (unlike :meth:`best_schedulable` it need not be
        uniform within a signature).
        """
        members = self.members
        best_key: Optional[Tuple[int, int]] = None
        best_job: Optional[Job] = None
        for shard in self._shards.values():
            for neg_priority, order, job in shard:
                member = members.get(job.job_id)
                if member is None or member[1] != order:
                    continue
                key = (neg_priority, order)
                if (best_key is None or key < best_key) and predicate(job):
                    best_key = key
                    best_job = job
        return best_job

    def iter_jobs(self) -> Iterator[Job]:
        """Iterate valid entries in priority order (non-destructive).

        O(n log n); used by pools when draining a blacked-out pool's
        queue, and by tests.
        """
        members = self.members
        entries = [
            entry
            for shard in self._shards.values()
            for entry in shard
            if (member := members.get(entry[2].job_id)) is not None
            and member[1] == entry[1]
        ]
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        for entry in entries:
            yield entry[2]

    def stats(self) -> QueueStats:
        """Lifetime queue statistics for telemetry exports."""
        return QueueStats(
            pushes=self._pushes,
            peak_depth=self._peak_depth,
            compactions=self._compactions,
        )

    def _compact(self, sig: Signature, valid: int) -> None:
        """Drop one shard's stale entries and re-heapify it.

        A shard with no valid entry left is deleted instead, so no
        shard is ever an empty list.
        """
        if not valid:
            del self._shards[sig]
            del self._valid[sig]
            return
        members = self.members
        shard = [
            entry
            for entry in self._shards[sig]
            if (member := members.get(entry[2].job_id)) is not None
            and member[1] == entry[1]
        ]
        heapq.heapify(shard)
        self._shards[sig] = shard
        self._compactions += 1

    def check_invariants(self) -> None:
        """Raise :class:`SchedulingError` if the lazy-removal accounting drifted.

        Stale entries may linger in any shard; what must hold is that
        each shard's valid count equals its live entries, the counts
        sum to the number of members, every member has exactly one live
        entry, and no shard is an empty list.
        """
        members = self.members
        live: Dict[int, int] = {}
        for sig, shard in self._shards.items():
            if not shard:
                raise SchedulingError(f"wait queue: empty shard {sig} kept")
            count = 0
            for _, order, job in shard:
                member = members.get(job.job_id)
                if member is not None and member[1] == order:
                    count += 1
                    live[job.job_id] = live.get(job.job_id, 0) + 1
            if self._valid.get(sig) != count:
                raise SchedulingError(
                    f"wait queue: shard {sig} counts {self._valid.get(sig)} "
                    f"valid entries but holds {count}"
                )
        if set(self._valid) != set(self._shards):
            raise SchedulingError("wait queue: valid counts and shards disagree")
        if sum(self._valid.values()) != len(members):
            raise SchedulingError(
                f"wait queue: valid counts sum to {sum(self._valid.values())} "
                f"for {len(members)} members"
            )
        for job_id in members:
            if live.get(job_id) != 1:
                raise SchedulingError(
                    f"wait queue: job {job_id} has {live.get(job_id, 0)} live entries"
                )

    def __repr__(self) -> str:
        return f"PriorityWaitQueue(len={len(self)})"
