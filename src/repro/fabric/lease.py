"""The cache-coordinated work-claiming protocol.

One small JSON file per cell under ``<cache_root>/leases/``, named
``<cache_key>.lease``.  The protocol has exactly three moves:

* **claim** — create the file with ``O_CREAT | O_EXCL``.  The
  filesystem arbitrates: exactly one racing worker wins, everyone else
  sees ``FileExistsError`` and moves on.
* **heartbeat** — the holder periodically rewrites the lease (atomic
  replace) with a fresh ``heartbeat_at``.  A lease whose heartbeat is
  older than the TTL is *stale*: its holder is presumed dead and any
  worker may take the lease over (again via atomic replace, so two
  racing stealers leave exactly one coherent winner on disk — the
  loser's write is simply overwritten, and the loser discovers it on
  the next :meth:`LeaseStore.refresh`).
* **release** — on success the holder replaces the lease with a
  ``done`` marker recording who computed the cell and how long it
  took; the marker is the fabric's provenance journal and is cleaned
  up by ``repro cache gc``.  On failure the holder deletes the lease
  so another worker can retry immediately.

Two moves belong to the fleet supervisor, which spawned and reaped the
holder and so knows it is dead: **expire** makes the dead holder's
claim stale at once (the next claim takes it over without waiting out
the TTL), and **quarantine** replaces it with a ``quarantined`` marker
once the cell has killed too many holders, so no worker of that run
claims it again.

Safety does **not** depend on the protocol: cells are deterministic
and published through the cache's atomic write, so the worst outcome
of any race (two holders after a partition, a stale TTL that was
merely slow) is the same bytes written twice.  The protocol only
exists to make duplicated work rare.

All timestamps *in the file* are wall-clock ``time.time()`` — leases
must be comparable across hosts sharing the cache directory; the TTL
is minutes-scale, so NTP-grade skew is irrelevant.  Staleness,
however, is never judged by wall clock alone: a backwards clock step
(NTP correction, VM resume) could otherwise pin a dead holder's lease
fresh forever.  Negative heartbeat ages clamp to zero, and each
:class:`LeaseStore` additionally remembers the **local monotonic**
instant it first observed every ``heartbeat_at`` value — a lease whose
heartbeat has not changed for a full TTL of monotonic time is stale no
matter what the wall clock says.  Both clocks are injectable for
tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import time
from pathlib import Path
from typing import Optional, Union

from ..errors import ReproError

__all__ = [
    "CLAIMED",
    "DONE",
    "QUARANTINED",
    "DEFAULT_TTL_SECONDS",
    "Lease",
    "LeaseError",
    "LeaseStore",
]

#: Lease states on disk.
CLAIMED = "claimed"
DONE = "done"
#: The run's supervisor gave up on the cell (it killed its holders).
QUARANTINED = "quarantined"

#: Heartbeat age after which a claimed lease may be taken over.
DEFAULT_TTL_SECONDS = 60.0


class LeaseError(ReproError):
    """A lease file was unreadable or the store was misused."""


@dataclasses.dataclass(frozen=True)
class Lease:
    """One parsed lease file."""

    key: str
    status: str
    run_id: str
    worker_id: str
    pid: int
    host: str
    claimed_at: float
    heartbeat_at: float
    takeovers: int = 0
    wall_seconds: float = 0.0

    def age(self, now: float) -> float:
        """Seconds since the holder last heartbeat (never negative).

        A backwards wall-clock step can put ``heartbeat_at`` in the
        observer's future; a negative age clamps to zero so the lease
        reads *fresh* — the safe direction, since staleness grants
        takeover.  Liveness across clock steps is restored by
        :meth:`LeaseStore.observed_stale`'s monotonic observations.
        """
        return max(0.0, now - self.heartbeat_at)

    def is_stale(self, now: float, ttl: float) -> bool:
        """Whether the holder is presumed dead (claimed + heartbeat old)."""
        return self.status == CLAIMED and self.age(now) > ttl

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


class LeaseStore:
    """Claim/heartbeat/release operations over one leases directory.

    Args:
        root: the *cache* root; leases live in ``<root>/leases``.
        run_id: identity of the coordinating run — done-markers from a
            different ``run_id`` render a cell ``claimed_elsewhere``.
        worker_id: identity of this claimant (one store per worker).
        ttl_seconds: heartbeat age beyond which claims are stealable.
        clock: wall-clock source, injectable for tests.
        monotonic: monotonic clock used for local staleness
            observations (immune to wall-clock steps).
    """

    def __init__(
        self,
        root: Union[str, Path],
        run_id: str,
        worker_id: str,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        clock=time.time,
        monotonic=time.monotonic,
    ) -> None:
        from ..experiments.cache import ResultCache

        self.dir = Path(root) / ResultCache.LEASES_DIRNAME
        self.dir.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self.worker_id = worker_id
        self.ttl = float(ttl_seconds)
        self._clock = clock
        self._monotonic = monotonic
        self._host = socket.gethostname()
        #: key -> (heartbeat_at last seen, monotonic instant first seen).
        self._observed: dict = {}

    def path_for(self, key: str) -> Path:
        """On-disk path of the lease for cache key ``key``."""
        return self.dir / f"{key}.lease"

    def read(self, key: str) -> Optional[Lease]:
        """The current lease for ``key``, or ``None``.

        A torn or garbage lease file (only possible from non-atomic
        external writers) reads as ``None`` — i.e. as claimable.
        """
        try:
            text = self.path_for(key).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(text)
            return Lease.from_dict({"key": key, **data})
        except (ValueError, TypeError):
            return None

    def claim(self, key: str) -> bool:
        """Try to claim ``key``; ``True`` exactly for the one winner.

        A fresh claim uses ``O_CREAT | O_EXCL`` so the filesystem picks
        the winner.  If a lease already exists it is claimable only
        when stale (holder heartbeat older than the TTL); takeover is
        an atomic replace and is confirmed by reading the file back —
        of N racing stealers, the one whose write landed last owns the
        lease and everyone else reports failure.
        """
        now = self._clock()
        path = self.path_for(key)
        body = self._render(key, CLAIMED, claimed_at=now, takeovers=0)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            existing = self.read(key)
            if existing is None:
                # Unreadable lease.  Two very different causes: a
                # racing claimer that won the exclusive create
                # microseconds ago and has not finished writing (the
                # file is brand new — leave it alone), or a torn file
                # from a non-atomic external writer (it will never
                # become readable and nobody can heartbeat it — after
                # a TTL of staying garbage, clear it so the cell is
                # claimable again instead of pinned forever).
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    return False
                if age > self.ttl:
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        pass
                return False
            if existing.status != CLAIMED:
                # done, or quarantined: neither is ever taken over.
                self._observed.pop(key, None)
                return False
            # Wall-clock staleness catches ordinary deaths; the
            # monotonic observation catches holders whose heartbeat is
            # pinned fresh by a backwards wall-clock step.
            if not (
                existing.is_stale(now, self.ttl)
                or self.observed_stale(key, existing)
            ):
                return False
            self._observed.pop(key, None)
            return self._takeover(key, existing, now)
        try:
            os.write(fd, body.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def observed_stale(self, key: str, lease: Lease) -> bool:
        """Staleness judged by *this store's* monotonic clock.

        Wall-clock staleness misjudges in both directions: a forward
        step fakes staleness (survivable — takeover is safe by
        design), while a backwards step makes a dead holder's
        heartbeat look perpetually fresh (not survivable — the cell
        would never be taken over).  So the store remembers the
        monotonic instant it first saw each ``heartbeat_at`` value;
        a claimed lease whose heartbeat has not advanced for a full
        TTL of local monotonic time is stale regardless of what the
        wall-clock arithmetic says.  The first observation of any
        heartbeat value always reads fresh — staleness needs a full
        locally-measured TTL of silence.
        """
        mono_now = self._monotonic()
        seen = self._observed.get(key)
        if seen is None or seen[0] != lease.heartbeat_at:
            self._observed[key] = (lease.heartbeat_at, mono_now)
            return False
        return mono_now - seen[1] > self.ttl

    def _takeover(self, key: str, stale: Lease, now: float) -> bool:
        """Steal a stale lease; ``True`` if our write won the race."""
        from ..fsutil import atomic_write_text

        body = self._render(
            key, CLAIMED, claimed_at=now, takeovers=stale.takeovers + 1
        )
        atomic_write_text(self.path_for(key), body)
        winner = self.read(key)
        return (
            winner is not None
            and winner.worker_id == self.worker_id
            and winner.run_id == self.run_id
        )

    def heartbeat(self, key: str) -> bool:
        """Refresh our claim on ``key``; ``False`` if we lost it.

        Losing a lease (another worker stole it after our heartbeat
        stalled) is survivable — the holder keeps computing and both
        publish identical bytes — but the caller should stop counting
        the cell as exclusively theirs.
        """
        current = self.read(key)
        if current is None or current.status == DONE:
            return False
        if current.worker_id != self.worker_id or current.run_id != self.run_id:
            return False
        from ..fsutil import atomic_write_text

        body = self._render(
            key,
            CLAIMED,
            claimed_at=current.claimed_at,
            takeovers=current.takeovers,
        )
        atomic_write_text(self.path_for(key), body)
        return True

    def release_done(self, key: str, wall_seconds: float = 0.0) -> None:
        """Replace our claim with a ``done`` marker (provenance journal).

        The marker inherits the current lease's takeover count —
        whether that lease is still our claim or already a thief's (or
        even the thief's done marker, when we are the resumed original
        holder publishing second) — so the journal records how
        contested the cell was; the chaos invariant checker reads it
        back as "cells lost, then recovered".
        """
        from ..fsutil import atomic_write_text

        now = self._clock()
        current = self.read(key)
        takeovers = current.takeovers if current is not None else 0
        body = self._render(
            key,
            DONE,
            claimed_at=now,
            takeovers=takeovers,
            wall_seconds=wall_seconds,
        )
        atomic_write_text(self.path_for(key), body)
        self._observed.pop(key, None)

    def expire(self, key: str, holder: str) -> None:
        """Make the claim of ``holder``, known to be dead, stale now.

        The next :meth:`claim` takes the lease over as it would from any
        stale holder, so the takeover count (the journal's record of a
        lost-then-recovered cell) is kept.  A claim that has meanwhile
        passed to someone else is left alone.
        """
        from ..fsutil import atomic_write_text

        current = self.read(key)
        if current is None or current.status != CLAIMED or current.worker_id != holder:
            return
        data = current.to_dict()
        del data["key"]
        data["heartbeat_at"] = 0.0
        atomic_write_text(self.path_for(key), json.dumps(data, sort_keys=True))

    def quarantine(self, key: str) -> None:
        """Replace the claim on ``key`` with a ``quarantined`` marker.

        Workers of this run skip the cell from then on; a later run
        clears the marker and tries the cell afresh.
        """
        from ..fsutil import atomic_write_text

        current = self.read(key)
        body = self._render(
            key,
            QUARANTINED,
            claimed_at=self._clock(),
            takeovers=current.takeovers if current is not None else 0,
        )
        atomic_write_text(self.path_for(key), body)
        self._observed.pop(key, None)

    def release_failed(self, key: str) -> None:
        """Drop our claim so another worker may retry immediately."""
        current = self.read(key)
        if current is None or current.worker_id != self.worker_id:
            return
        try:
            self.path_for(key).unlink(missing_ok=True)
        except OSError:
            pass
        self._observed.pop(key, None)

    def _render(
        self,
        key: str,
        status: str,
        claimed_at: float,
        takeovers: int,
        wall_seconds: float = 0.0,
    ) -> str:
        now = self._clock()
        return json.dumps(
            {
                "status": status,
                "run_id": self.run_id,
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "host": self._host,
                "claimed_at": claimed_at,
                "heartbeat_at": now,
                "takeovers": takeovers,
                "wall_seconds": round(wall_seconds, 6),
            },
            sort_keys=True,
        )
