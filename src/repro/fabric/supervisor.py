"""Self-healing fleet supervision: restart, backoff, quarantine, elasticity.

The lease protocol makes worker deaths *survivable* — a dead worker
costs one cell for one TTL — but survivable is not the same as
recovered: a fleet of N workers that loses k of them finishes the grid
at N-k speed forever.  :class:`FleetSupervisor` closes that gap, in
the spirit of the paper's own platform (owners reclaim machines at
will; the scheduler's job is to keep the work moving anyway):

* **restart** — a worker that dies is respawned, with exponential
  backoff between attempts so a sick host is not hammered;
* **deterministic jitter** — each backoff is skewed by a hash of
  (run, slot, incarnation), so simultaneous deaths do not respawn in
  lockstep yet every run replays identically;
* **release** — the supervisor spawned every worker on this host and
  reaps it itself, so a reaped worker is certainly dead: the cells it
  held are expired at once (:class:`FleetLeases`) instead of waiting
  out the lease TTL, its claims on cells it had already published are
  removed, and the surviving workers are woken;
* **quarantine** — a slot that crash-loops past its restart budget is
  benched instead of burning spawns forever, and a *cell* whose
  holders died ``restart_budget`` times is given up on, so a
  persistently crashing cell fails alone (recovery actions are priced
  and bounded, not ad hoc).  Each death is charged to the one cell
  its worker was computing, and charged deaths do not use up the
  spawn budget, so any number of crashing cells each reach a verdict;
* **elastic grow/shrink** — the fleet tracks the remaining work:
  capacity lost to quarantine is replaced while the grid is deep, and
  slots whose capacity is no longer needed are retired by attrition
  (never killed mid-cell) as the grid drains.  This closes the ROADMAP
  item "elastic worker fleets that grow/shrink mid-grid" — the lease
  protocol already tolerated joins and deaths, only the backend-side
  fleet management was missing;
* **graceful drain** — :meth:`FleetSupervisor.request_drain` (wired to
  SIGTERM by ``repro run-grid --supervise``) terminates the fleet
  cleanly and reports what was left unpublished.

Everything timing-related goes through injectable clocks, so the unit
tests drive the whole state machine with fake time and fake process
handles; the chaos harness (:mod:`repro.chaos`) exercises the same
code against real SIGKILLed subprocess fleets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..experiments.cache import ResultCache
from ..experiments.parallel import CellTask
from ..fsutil import tmp_writer_alive
from .backends import (
    BackendError,
    SubprocessWorkerBackend,
    notify_on_exit,
    stderr_tail,
    wake_workers,
    write_manifest,
)
from .lease import CLAIMED, DEFAULT_TTL_SECONDS, LeaseStore

__all__ = [
    "FleetLeases",
    "FleetSupervisor",
    "SupervisedWorkerBackend",
    "SupervisorConfig",
    "SupervisorStats",
    "deterministic_jitter",
    "sweep_settled_leases",
    "sweep_tmp_droppings",
]


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """The supervisor's explicit recovery budget.

    Attributes:
        backoff_base_seconds: delay before the first restart of a slot.
        backoff_factor: multiplier per consecutive crash of that slot.
        backoff_max_seconds: backoff ceiling.
        jitter_fraction: each delay is skewed by up to this fraction,
            deterministically (hash of run/slot/incarnation).
        restart_budget: consecutive fast crashes a slot may burn before
            it is quarantined; also how many holders a cell may kill
            before it is given up on.
        healthy_uptime_seconds: a worker that stays alive this long
            resets its slot's crash streak — it was working, not
            crash-looping.
        rescan_budget: clean worker exits with cells still unpublished
            (a corrupted entry discovered after the fleet moved on)
            trigger at most this many fresh re-scan workers.
        spawn_budget_factor: ceiling on spawns, as a multiple of
            ``max_workers``, not counting deaths charged to a cell
            (``restart_budget`` bounds those per cell).
        drain_timeout_seconds: how long a terminated worker gets to
            exit before it is killed.
    """

    backoff_base_seconds: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 10.0
    jitter_fraction: float = 0.25
    restart_budget: int = 3
    healthy_uptime_seconds: float = 5.0
    rescan_budget: int = 1
    spawn_budget_factor: int = 6
    drain_timeout_seconds: float = 5.0


@dataclasses.dataclass
class SupervisorStats:
    """What one supervised run cost in recovery actions."""

    restarts: int = 0
    quarantined: int = 0
    grown: int = 0
    shrunk: int = 0
    spawned: int = 0
    drained: bool = False
    #: Worker deaths charged to each cell: cache key -> how many of
    #: its holders died computing it.
    cell_deaths: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Cells given up on: cache key -> worker deaths while holding it.
    abandoned: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Claims a dead worker left on cells it had already published
    #: (killed between publish and release), removed when it was reaped.
    settled_released: int = 0
    #: Monotonic instants bounding the recovery window (None = no
    #: failure observed / run never completed).
    first_failure_at: Optional[float] = None
    completed_at: Optional[float] = None

    def recovery_seconds(self) -> float:
        """Wall time from the first observed worker death to grid
        completion (0 when nothing died)."""
        if self.first_failure_at is None or self.completed_at is None:
            return 0.0
        return max(0.0, self.completed_at - self.first_failure_at)

    def to_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "quarantined": self.quarantined,
            "grown": self.grown,
            "shrunk": self.shrunk,
            "spawned": self.spawned,
            "drained": self.drained,
            "recovery_seconds": round(self.recovery_seconds(), 6),
        }


def deterministic_jitter(token: str, fraction: float) -> float:
    """A stable pseudo-random skew in ``[-fraction, +fraction]``.

    Hash-derived rather than ``random``-derived so two runs of the
    same grid schedule identical restart instants — chaos scenarios
    must replay exactly from their seed.
    """
    if fraction <= 0:
        return 0.0
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(2**64)
    return (2.0 * unit - 1.0) * fraction


class FleetLeases(LeaseStore):
    """One run's lease journal, as the supervisor of its fleet uses it.

    :meth:`held_by` finds a reaped worker's unpublished cells; the
    supervisor then calls :meth:`~repro.fabric.lease.LeaseStore.expire`
    or :meth:`~repro.fabric.lease.LeaseStore.quarantine` on each.
    :meth:`drop_settled` removes its claims on cells it had published.
    """

    def __init__(
        self,
        cache: ResultCache,
        keys: Sequence[str],
        run_id: str,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        super().__init__(
            cache.root,
            run_id=run_id,
            worker_id=f"{run_id}-supervisor",
            ttl_seconds=ttl_seconds,
        )
        self._cache = cache
        self._keys = list(dict.fromkeys(keys))

    def _claims_of(self, worker_id: str, published: bool) -> List[str]:
        return [
            key
            for key in self._keys
            if (lease := self.read(key)) is not None
            and lease.status == CLAIMED
            and lease.worker_id == worker_id
            and self._cache.contains(key) == published
        ]

    def held_by(self, worker_id: str) -> List[str]:
        """Unpublished cells whose claim names ``worker_id``, in grid
        order."""
        return self._claims_of(worker_id, published=False)

    def drop_settled(self, worker_id: str) -> int:
        """Remove the claims of dead ``worker_id`` on published cells.

        Such a claim is a settled orphan (its holder died between
        publish and release).  Nobody else claims a published cell, so
        once the supervisor has reaped the holder the claim can go at
        once, instead of waiting out a TTL in
        :func:`sweep_settled_leases`.  Returns how many were removed.
        """
        removed = 0
        for key in self._claims_of(worker_id, published=True):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed


class _Slot:
    """One worker slot: a lineage of process incarnations."""

    __slots__ = (
        "index", "handle", "incarnation", "started_at", "streak",
        "restart_at", "quarantined", "retired", "rescans",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.handle = None
        self.incarnation = -1
        self.started_at = 0.0
        self.streak = 0
        self.restart_at: Optional[float] = None
        self.quarantined = False
        self.retired = False
        self.rescans = 0

    @property
    def active(self) -> bool:
        """Counted as fleet capacity: running, or booked to restart."""
        return not (self.quarantined or self.retired) and (
            self.handle is not None or self.restart_at is not None
        )


class FleetSupervisor:
    """Monitor a worker fleet; restart, quarantine, grow and shrink it.

    Args:
        spawn: ``spawn(slot_index, incarnation) -> handle`` starting
            one worker process.  A handle needs ``poll()``,
            ``terminate()``, ``kill()`` and ``pid``; a ``stderr_path``
            attribute (as set by
            :meth:`SubprocessWorkerBackend.spawn_worker`) makes death
            reports quote the worker's last words.
        initial_workers: fleet size at start.
        min_workers / max_workers: elastic bounds; the fleet tracks
            ``clamp(remaining_cells, min, max)``.
        config: the recovery budget.
        name: token salting the deterministic jitter (the run id).
        clock: monotonic clock, injectable for tests.
        sleep: ``sleep(seconds)`` for the run loop's waits, injectable
            for tests.  The default wait ends early when a worker
            exits: handles with ``add_exit_callback`` (or ``wait``)
            report their exits, see
            :func:`~repro.fabric.backends.notify_on_exit`.
        on_event: ``on_event(kind, message)`` observer; defaults to a
            ``[supervisor]``-prefixed stderr line per action.
        leases: optional :class:`FleetLeases` (or any object with its
            ``held_by`` / ``drop_settled`` / ``expire`` / ``quarantine``
            methods).  With it, each crashed worker's cells are
            released (published ones at once), its death is
            charged in :attr:`SupervisorStats.cell_deaths` and, after
            ``restart_budget`` holder deaths, a cell is quarantined
            into :attr:`SupervisorStats.abandoned`; handles need a
            ``worker_id`` attribute.
    """

    def __init__(
        self,
        spawn: Callable[[int, int], object],
        initial_workers: int = 2,
        min_workers: int = 1,
        max_workers: int = 4,
        config: Optional[SupervisorConfig] = None,
        name: str = "fleet",
        clock=time.monotonic,
        sleep: Optional[Callable[[float], object]] = None,
        on_event: Optional[Callable[[str, str], None]] = None,
        leases=None,
    ) -> None:
        if not 1 <= min_workers <= max_workers:
            raise BackendError(
                f"supervisor needs 1 <= min <= max workers, got "
                f"{min_workers}..{max_workers}"
            )
        self._spawn_fn = spawn
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.initial_workers = max(min_workers, min(max_workers, initial_workers))
        self.config = config or SupervisorConfig()
        self.name = name
        self._clock = clock
        self._exited = threading.Event()
        self._sleep = sleep or self._exited.wait
        self._on_event = on_event
        self._leases = leases
        self._stalled = False
        self._slots: List[_Slot] = []
        self._drain_requested = False
        self.stats = SupervisorStats()

    # -- observability -------------------------------------------------

    def _event(self, kind: str, message: str) -> None:
        if self._on_event is not None:
            self._on_event(kind, message)
        else:
            print(f"[supervisor] {message}", file=sys.stderr)

    def _tail_of(self, handle) -> str:
        return stderr_tail(getattr(handle, "stderr_path", None))

    # -- lifecycle -----------------------------------------------------

    def request_drain(self) -> None:
        """Ask the run loop to terminate the fleet and return (the
        SIGTERM hook).  Safe from any thread or signal handler."""
        self._drain_requested = True

    def wake(self, handle=None) -> None:
        """A worker exited: end the run loop's current wait early.
        Safe from any thread."""
        self._exited.set()

    def _pause(self, seconds: float) -> None:
        # Cleared after the wait: an exit reported before the clear has
        # already set its returncode, so the reap that follows sees it.
        self._sleep(seconds)
        self._exited.clear()

    def _spawn_budget(self) -> int:
        # Deaths charged to a cell are bounded per cell by
        # restart_budget, so they earn their replacement back.
        return self.config.spawn_budget_factor * self.max_workers + sum(
            self.stats.cell_deaths.values()
        )

    def _start_slot(self, slot: _Slot, now: float) -> bool:
        """Spawn the slot's next incarnation; False when out of budget."""
        if self.stats.spawned >= self._spawn_budget():
            self._event(
                "budget",
                f"spawn budget ({self._spawn_budget()}) exhausted; "
                f"slot w{slot.index} stays down",
            )
            slot.retired = True
            slot.restart_at = None
            return False
        slot.incarnation += 1
        slot.handle = self._spawn_fn(slot.index, slot.incarnation)
        notify_on_exit(slot.handle, self.wake)
        slot.started_at = now
        slot.restart_at = None
        self.stats.spawned += 1
        return True

    def _backoff(self, slot: _Slot) -> float:
        cfg = self.config
        base = min(
            cfg.backoff_max_seconds,
            cfg.backoff_base_seconds * cfg.backoff_factor ** max(0, slot.streak - 1),
        )
        skew = deterministic_jitter(
            f"{self.name}|{slot.index}|{slot.incarnation}", cfg.jitter_fraction
        )
        return base * (1.0 + skew)

    def _add_slot(self, now: float) -> bool:
        """Open a new slot and start its first worker."""
        self._slots.append(_Slot(len(self._slots)))
        return self._start_slot(self._slots[-1], now)

    def _active_count(self) -> int:
        return sum(1 for s in self._slots if s.active)

    def live_handles(self) -> List[tuple]:
        """``(slot_index, handle)`` for every currently-running worker
        (the chaos harness aims its out-of-band faults with this)."""
        return [
            (s.index, s.handle)
            for s in self._slots
            if s.handle is not None and s.handle.poll() is None
        ]

    def _pending_restart(self) -> bool:
        return any(s.restart_at is not None for s in self._slots)

    def _release_cells(self, handle) -> None:
        """Free the cells a crashed worker held, or give up on them.

        Deaths are counted per cell, not per slot: a slot's crash
        streak resets once an incarnation outlives
        ``healthy_uptime_seconds``, but a cell that kills every holder
        must still reach a verdict.  A worker computes its claimed
        batch in grid order, so the death is charged to the first cell
        it held — the one it was running; the rest of its batch is
        released uncharged.
        """
        worker_id = getattr(handle, "worker_id", None)
        if self._leases is None or worker_id is None:
            return
        self.stats.settled_released += self._leases.drop_settled(worker_id)
        held = self._leases.held_by(worker_id)
        if not held:
            return
        for key in held[1:]:
            self._leases.expire(key, worker_id)
        key = held[0]
        deaths = self.stats.cell_deaths.get(key, 0) + 1
        self.stats.cell_deaths[key] = deaths
        if deaths >= self.config.restart_budget:
            self._leases.quarantine(key)
            self.stats.abandoned[key] = deaths
            self._event(
                "abandon",
                f"cell {key[:12]} abandoned after {deaths} holder deaths",
            )
        else:
            self._leases.expire(key, worker_id)

    def _reap(self, now: float, desired: int) -> None:
        """Process deaths: restart, quarantine, or retire each one.

        ``desired`` is the demand-clamped fleet size, or 0 once the
        grid is complete.  Any reaped exit wakes the surviving workers:
        the cells they wait on are now published or released.
        """
        cfg = self.config
        reaped = False
        for slot in self._slots:
            if slot.handle is None or slot.quarantined or slot.retired:
                continue
            handle = slot.handle
            returncode = handle.poll()
            if returncode is None:
                continue
            uptime = now - slot.started_at
            tail = self._tail_of(handle)
            slot.handle = None
            reaped = True
            if returncode == 0:
                if desired == 0:
                    # The grid is complete: a clean exit is the normal end.
                    continue
                # A clean exit while cells remain unpublished means the
                # worker's view of the grid went stale (e.g. an entry
                # was corrupted after it moved on).  One fresh re-scan
                # worker heals that; the rest of the fleet retires.
                if slot.rescans < cfg.rescan_budget and not self._pending_restart():
                    slot.rescans += 1
                    slot.restart_at = now
                    self._event(
                        "rescan",
                        f"w{slot.index} exited clean with work remaining; "
                        "re-scanning the grid",
                    )
                else:
                    # A worker exits clean only once every cell it has
                    # not seen published failed in its own hands: more
                    # workers would fail them again.  The fleet stops
                    # growing; the coordinator diagnoses those cells.
                    slot.retired = True
                    self._stalled = True
                    self.stats.shrunk += 1
                    self._event(
                        "shrink", f"w{slot.index} retired (grid almost drained)"
                    )
                continue
            if self.stats.first_failure_at is None:
                self.stats.first_failure_at = now
            self._release_cells(handle)
            slot.streak = (
                1 if uptime >= cfg.healthy_uptime_seconds else slot.streak + 1
            )
            detail = f"exit {returncode} after {uptime:.2f}s"
            if tail:
                detail += f"; last stderr:\n{tail}"
            if slot.streak > cfg.restart_budget:
                slot.quarantined = True
                slot.restart_at = None
                self.stats.quarantined += 1
                self._event(
                    "quarantine",
                    f"w{slot.index} quarantined after {slot.streak} "
                    f"consecutive crashes ({detail})",
                )
            elif slot.streak == 1 and self._active_count() >= desired:
                # Attrition shrink applies only to a first, isolated
                # death: a slot already mid-crash-loop must keep
                # burning its restart budget toward quarantine, or a
                # draining grid would mask a persistent crasher.
                slot.retired = True
                self.stats.shrunk += 1
                self._event(
                    "shrink",
                    f"w{slot.index} retired instead of restarted "
                    f"(fleet of {self._active_count()} covers "
                    f"{desired} remaining cell(s))",
                )
            else:
                delay = self._backoff(slot)
                slot.restart_at = now + delay
                self._event(
                    "backoff",
                    f"w{slot.index} died ({detail}); restart "
                    f"#{slot.streak} in {delay:.2f}s",
                )
        if reaped:
            wake_workers(s.handle for s in self._slots if s.handle is not None)

    def _restart_due(self, now: float) -> None:
        for slot in self._slots:
            if slot.restart_at is None or slot.restart_at > now:
                continue
            if slot.quarantined or slot.retired:
                slot.restart_at = None
                continue
            if self._start_slot(slot, now):
                self.stats.restarts += 1
                self._event(
                    "restart",
                    f"w{slot.index} restarted (incarnation {slot.incarnation})",
                )

    def _resize(self, desired: int, now: float) -> None:
        """Grow toward the demand-clamped fleet size (shrink happens by
        attrition in :meth:`_reap`, never by killing a busy worker)."""
        while self._active_count() < desired and not self._stalled:
            if self.stats.spawned >= self._spawn_budget() or not self._add_slot(now):
                return
            self.stats.grown += 1
            self._event(
                "grow",
                f"w{self._slots[-1].index} added "
                f"(fleet {self._active_count()}/{desired})",
            )

    def grow(self, count: int = 1) -> int:
        """Explicitly add workers (clamped to ``max_workers``); returns
        how many were actually added."""
        now = self._clock()
        added = 0
        for _ in range(count):
            if self._active_count() >= self.max_workers or not self._add_slot(now):
                break
            self.stats.grown += 1
            added += 1
        return added

    def shrink(self, count: int = 1) -> int:
        """Explicitly retire workers (gracefully, highest slot first),
        keeping at least ``min_workers``; returns how many retired."""
        removed = 0
        for slot in sorted(self._slots, key=lambda s: -s.index):
            if removed >= count or self._active_count() <= self.min_workers:
                break
            if not slot.active:
                continue
            if slot.handle is not None and slot.handle.poll() is None:
                slot.handle.terminate()
            slot.retired = True
            slot.restart_at = None
            self.stats.shrunk += 1
            removed += 1
            self._event("shrink", f"w{slot.index} retired on request")
        return removed

    def _drain(self) -> None:
        """Terminate every live worker; escalate to kill on timeout."""
        live = [
            s for s in self._slots
            if s.handle is not None and s.handle.poll() is None
        ]
        for slot in live:
            try:
                slot.handle.terminate()
            except OSError:
                pass
        deadline = self._clock() + self.config.drain_timeout_seconds
        while live and self._clock() < deadline:
            live = [s for s in live if s.handle.poll() is None]
            if live:
                self._pause(0.05)
        for slot in live:
            try:
                slot.handle.kill()
            except OSError:
                pass

    def _settle(self, grace_until: float) -> None:
        """Wind the fleet down once the grid is complete.

        Workers notice the complete grid and exit on their own (they
        release their last leases cleanly); stragglers get until
        ``grace_until`` before :meth:`_drain` terminates them.  A slot
        caught mid crash streak is still followed to a verdict: its
        pending restart runs, and each incarnation is watched until it
        exits cleanly, outlives ``healthy_uptime_seconds`` or crashes
        into quarantine.  Whether a crash-looper is quarantined thus
        does not depend on how fast the rest of the fleet drained the
        grid.
        """
        healthy = self.config.healthy_uptime_seconds
        while not self._drain_requested:
            now = self._clock()
            self._reap(now, 0)
            self._restart_due(now)
            if not any(
                slot.restart_at is not None
                or (
                    slot.handle is not None
                    and slot.handle.poll() is None
                    and (
                        now < grace_until
                        or (slot.streak and now - slot.started_at < healthy)
                    )
                )
                for slot in self._slots
            ):
                return
            self._pause(0.05)

    def run(
        self,
        status: Callable[[], int],
        poll_interval: float = 0.1,
    ) -> SupervisorStats:
        """Supervise until ``status()`` reports zero remaining cells.

        ``status`` is the fleet's ground truth (for the fabric: how
        many cells have no published cache entry).  Returns when the
        grid is complete, a drain was requested, or every slot is
        quarantined/retired — the caller owns the fallback for the
        latter two.
        """
        now = self._clock()
        for _ in range(self.initial_workers):
            self._add_slot(now)
        while True:
            remaining = int(status())
            if remaining <= 0:
                self.stats.completed_at = self._clock()
                self._settle(self.stats.completed_at + 2.0)
                self._drain()
                return self.stats
            if self._drain_requested:
                self._drain()
                self.stats.drained = True
                self._event("drain", "fleet drained on request")
                return self.stats
            now = self._clock()
            desired = max(self.min_workers, min(self.max_workers, remaining))
            self._reap(now, desired)
            self._restart_due(now)
            self._resize(desired, now)
            if self._active_count() == 0:
                self._event(
                    "exhausted",
                    f"no active workers left ({remaining} cell(s) "
                    "unpublished); handing back to the coordinator",
                )
                return self.stats
            self._pause(poll_interval)


def sweep_settled_leases(
    cache: ResultCache,
    keys: Sequence[str],
    ttl: float = DEFAULT_TTL_SECONDS,
    sleep=time.sleep,
    clock=time.time,
) -> int:
    """Remove claimed leases whose cell is already published.

    A worker killed between ``cache.put`` and ``release_done`` leaves
    a CLAIMED lease journaling a cell that is in fact published — a
    settled orphan.  After the grid completes, those leases are
    provably dead once their file has not been rewritten (no
    heartbeat) for a TTL; anything fresher might be a still-live
    duplicate holder (a frozen-then-resumed worker racing to publish
    identical bytes), which is left alone to finish and release
    itself.  Returns the number of orphans removed.
    """
    grace = max(0.25, float(ttl))
    candidates = {key: cache.leases_dir / f"{key}.lease" for key in keys}
    store = LeaseStore(cache.root, run_id="sweep", worker_id="sweep")
    deadline = clock() + 2.0 * grace + 2.0
    removed = 0
    while candidates and clock() < deadline:
        for key, path in list(candidates.items()):
            lease = store.read(key)
            if lease is None or lease.status != CLAIMED:
                candidates.pop(key)
                continue
            if not cache.contains(key):
                # Unpublished claim: not ours to judge — the lease
                # protocol's TTL owns it.
                candidates.pop(key)
                continue
            try:
                age = clock() - path.stat().st_mtime
            except OSError:
                candidates.pop(key)
                continue
            if age > grace:
                try:
                    path.unlink(missing_ok=True)
                    removed += 1
                except OSError:
                    pass
                candidates.pop(key)
        if candidates:
            sleep(min(0.1, grace / 4.0))
    return removed


def sweep_tmp_droppings(cache: ResultCache) -> int:
    """Remove tmp files abandoned by killed writers.

    Atomic writes go ``<name>.tmp.<writer>.<pid>`` then rename; a process
    SIGKILLed between the two leaves the tmp behind (a heartbeat or
    publish caught mid-write).  Once the writing pid is gone the file
    is provably garbage — nothing will ever rename it — so it is
    unlinked.  Tmp files of still-live pids are someone's in-flight
    write and are left alone.  Returns the number removed.
    """
    removed = 0
    for path in cache.root.rglob("*.tmp.*"):
        if tmp_writer_alive(path):
            continue
        try:
            path.unlink(missing_ok=True)
            removed += 1
        except OSError:
            pass
    return removed


class SupervisedWorkerBackend(SubprocessWorkerBackend):
    """A subprocess fleet kept healthy by a :class:`FleetSupervisor`.

    Same worker binary, same lease protocol, same cache coordination
    as :class:`SubprocessWorkerBackend` — plus restart/backoff/
    quarantine/elasticity on top.  Worker ids carry their incarnation
    (``<run>-w2r1`` is slot 2's first restart) so every incarnation
    writes its own stats and stderr files.

    Cells the fleet could not publish are left to the coordinator
    (:func:`~repro.fabric.coordinator.run_grid_fabric`).  Settled
    orphan leases (publisher killed pre-release) are removed when the
    supervisor reaps their holder, and any left are swept after the
    grid completes, so a chaos-audited run ends with a clean journal;
    ``last_supervisor_stats`` / ``last_swept_leases`` expose
    what recovery cost, and the coordinator exports them as
    ``repro_fabric_restarts`` telemetry.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 4,
        poll_interval: float = 0.2,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        super().__init__(n_workers=max_workers, poll_interval=poll_interval)
        if not 1 <= min_workers <= max_workers:
            raise BackendError(
                f"supervised backend needs 1 <= min <= max, got "
                f"{min_workers}..{max_workers}"
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.config = config or SupervisorConfig()
        self.name = f"supervised:{min_workers}-{max_workers}"
        self.current_supervisor: Optional[FleetSupervisor] = None
        self.last_supervisor_stats: Optional[SupervisorStats] = None
        self.last_swept_leases = 0

    def request_drain(self) -> None:
        """Forward a drain request (SIGTERM) to the live supervisor."""
        supervisor = self.current_supervisor
        if supervisor is not None:
            supervisor.request_drain()

    def run(
        self,
        tasks: Sequence[CellTask],
        cache_dir: Path,
        run_id: str,
        lease_ttl: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        cache_dir = Path(cache_dir)
        manifest = write_manifest(
            tasks, cache_dir / "manifests" / f"{run_id}.manifest"
        )
        cache = ResultCache(cache_dir)
        keys = list(dict.fromkeys(t.cache_key for t in tasks if t.cache_key))

        def status() -> int:
            abandoned = supervisor.stats.abandoned
            return sum(
                1 for k in keys if k not in abandoned and not cache.contains(k)
            )

        def spawn(slot: int, incarnation: int):
            # Incarnations are first-class: slot 2's original process
            # is w2r0 and its first restart w2r1, so chaos selectors
            # can target exactly one incarnation and every process
            # writes distinct stats/stderr files.
            worker_id = f"{run_id}-w{slot}r{incarnation}"
            return self.spawn_worker(
                manifest, cache_dir, run_id, lease_ttl, worker_id
            )

        supervisor = FleetSupervisor(
            spawn,
            initial_workers=min(self.max_workers, max(self.min_workers, len(keys))),
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            config=self.config,
            name=run_id,
            leases=FleetLeases(cache, keys, run_id, lease_ttl),
        )
        self.current_supervisor = supervisor
        try:
            stats = supervisor.run(status, poll_interval=self.poll_interval)
        finally:
            self.last_supervisor_stats = supervisor.stats
            self.current_supervisor = None
        if stats.drained:
            raise BackendError(
                f"supervised fleet drained on request with {status()} "
                "cell(s) unpublished"
            )
        remaining = status()
        if remaining:
            print(
                f"[fabric] supervised fleet stopped with {remaining} "
                "cell(s) unpublished; the coordinator takes them over",
                file=sys.stderr,
            )
        self.last_swept_leases = stats.settled_released + sweep_settled_leases(
            cache, keys, ttl=lease_ttl
        )
        sweep_tmp_droppings(cache)
