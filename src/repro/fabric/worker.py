"""The fabric worker: claim → compute → publish → release.

A worker is handed the *whole* grid (a manifest of
:class:`~repro.experiments.parallel.CellTask`) and the shared cache
directory; which cells it actually computes is decided at runtime by
the lease protocol (:mod:`.lease`).  N workers pointed at the same
cache therefore load-balance automatically — fast hosts claim more
cells — and a worker that dies loses only the one cell it held, which
a peer takes over after the lease TTL.

The loop, per cell: skip if the cache already holds the result; try to
claim the lease (exactly one racing worker wins); simulate; publish
the result through the cache's atomic write; replace the lease with a
``done`` marker.  A daemon thread heartbeats every held lease so slow
cells are not mistaken for dead workers.

Adaptive batching: grids of sub-100ms cells would otherwise spend
more time on lease I/O than simulation, so the worker claims cells in
batches whose size doubles while the observed mean cell cost stays
under :data:`BATCH_TARGET_SECONDS` (and collapses back to 1 the moment
cells get expensive — cheap cells amortize claim overhead, expensive
cells keep takeover granularity fine).

Runnable as ``python -m repro.fabric.worker`` — this is the process
the :class:`~repro.fabric.backends.SubprocessWorkerBackend` spawns.

``REPRO_FABRIC_CELL_FLOOR`` (seconds, float) pads every computed cell
to at least that wall time.  It exists for scheduling-bound fabric
benchmarks on small CI machines and is honestly recorded in the bench
metadata; it is never set in real runs.

``REPRO_CHAOS_PLAN`` (path to a JSON fault plan, see
:mod:`repro.chaos.plan`) arms in-band fault injection: the worker
calls the plan's hooks at the three interesting instants of a cell's
life (before compute, before publish, between publish and lease
release) and the plan decides whether to die, stall, or corrupt right
there.  Never set outside the chaos harness.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..experiments.cache import ResultCache
from ..experiments.parallel import CellTask, _simulate_task
from ..fsutil import atomic_write_text
from .lease import DEFAULT_TTL_SECONDS, DONE, LeaseStore

__all__ = [
    "BATCH_TARGET_SECONDS",
    "CELL_FLOOR_ENV",
    "WorkerStats",
    "load_manifest",
    "run_worker",
    "write_manifest",
]

#: Mean cell cost below which the claim batch size doubles.
BATCH_TARGET_SECONDS = 0.1

#: Claim batch size ceiling (bounds work lost to a worker death).
MAX_BATCH = 32

#: Environment variable padding each computed cell's wall time (benchmarks).
CELL_FLOOR_ENV = "REPRO_FABRIC_CELL_FLOOR"


@dataclass
class WorkerStats:
    """What one worker did to the grid (its exit report).

    ``claimed`` counts won leases, ``stolen`` the subset won by
    stale-lease takeover; ``computed`` cells actually simulated;
    ``published`` results written to the cache; ``skipped`` cells
    observed already published by a peer; ``failed`` cells whose
    simulation raised (lease released, left unpublished for the
    coordinator to diagnose); ``lease_lost`` heartbeats that
    discovered the lease had been stolen from *us* (the cell is still
    published — duplicated work, never lost work).
    """

    worker_id: str
    claimed: int = 0
    stolen: int = 0
    computed: int = 0
    published: int = 0
    skipped: int = 0
    failed: int = 0
    lease_lost: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def write_manifest(tasks: Sequence[CellTask], path) -> Path:
    """Pickle a task list for ``python -m repro.fabric.worker``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(list(tasks), protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return path


def load_manifest(path) -> List[CellTask]:
    """Load a manifest written by :func:`write_manifest`."""
    with open(path, "rb") as handle:
        tasks = pickle.load(handle)
    if not isinstance(tasks, list) or not all(
        isinstance(t, CellTask) for t in tasks
    ):
        raise ReproError(f"not a cell-task manifest: {path}")
    return tasks


class _Heartbeat:
    """Daemon thread refreshing every lease the worker currently holds."""

    def __init__(self, leases: LeaseStore, stats: WorkerStats) -> None:
        self._leases = leases
        self._stats = stats
        self._held: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        interval = max(0.05, leases.ttl / 3.0)
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def hold(self, key: str) -> None:
        with self._lock:
            self._held.add(key)

    def drop(self, key: str) -> None:
        with self._lock:
            self._held.discard(key)

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            with self._lock:
                held = list(self._held)
            for key in held:
                try:
                    if not self._leases.heartbeat(key):
                        self._stats.lease_lost += 1
                except Exception:
                    # A failed heartbeat never kills the compute loop;
                    # worst case the lease goes stale and is stolen,
                    # which the protocol already survives.
                    pass


def run_worker(
    tasks: Sequence[CellTask],
    cache: ResultCache,
    leases: LeaseStore,
    poll_interval: float = 0.2,
    wait_for_all: bool = True,
    cell_floor: Optional[float] = None,
    sleep=time.sleep,
    chaos=None,
) -> WorkerStats:
    """Run the claim/compute/publish loop until the grid is published.

    Args:
        tasks: the full grid manifest; cells without a ``cache_key``
            are ignored (the coordinator computes those itself).
        cache: the shared result cache (the coordination medium).
        leases: this worker's :class:`~repro.fabric.lease.LeaseStore`.
        poll_interval: seconds between polls while peers hold the
            remaining cells.
        wait_for_all: block until *every* cell is published (takes over
            stale leases along the way).  ``False`` returns as soon as
            nothing is claimable — only for tests.
        cell_floor: pad each computed cell to at least this wall time
            (see :data:`CELL_FLOOR_ENV`).
        sleep: sleep function, injectable for tests.
        chaos: optional :class:`~repro.chaos.plan.ChaosPlan` whose
            ``on_compute`` / ``on_publish`` / ``on_post_publish``
            hooks fire around each computed cell (fault injection for
            the chaos harness; ``None`` in real runs).
    """
    stats = WorkerStats(worker_id=leases.worker_id)
    start = time.perf_counter()
    remaining: Dict[str, CellTask] = {
        t.cache_key: t for t in tasks if t.cache_key
    }
    failed: set = set()
    batch_size = 1
    recent_walls: List[float] = []

    with _Heartbeat(leases, stats) as heartbeat:
        while len(remaining) > len(failed):
            claimed: List[CellTask] = []
            for key in list(remaining):
                if len(claimed) >= batch_size:
                    break
                if key in failed:
                    continue
                if cache.peek(key) is not None:
                    remaining.pop(key)
                    stats.skipped += 1
                    continue
                before = leases.read(key)
                if before is not None and before.status == DONE:
                    # Publication order is cache.put → release_done, so
                    # a done marker normally means our peek above lost a
                    # race with the publisher — re-peek before trusting
                    # it.  A done marker with *still* no cache entry is
                    # a genuine orphan (the entry was gc'ed); clear it
                    # so the cell is claimable again.
                    if cache.peek(key) is not None:
                        remaining.pop(key)
                        stats.skipped += 1
                        continue
                    try:
                        leases.path_for(key).unlink(missing_ok=True)
                    except OSError:
                        pass
                    before = None
                if not leases.claim(key):
                    continue
                stats.claimed += 1
                if before is not None:
                    stats.stolen += 1
                heartbeat.hold(key)
                claimed.append(remaining.pop(key))

            for task in claimed:
                key = task.cache_key
                ordinal = stats.computed
                try:
                    if chaos is not None:
                        chaos.on_compute(key, ordinal)
                    _, summary, result, wall = _simulate_task(task)
                    if cell_floor is not None and wall < cell_floor:
                        sleep(cell_floor - wall)
                        wall = cell_floor
                    stats.computed += 1
                    recent_walls.append(wall)
                    if chaos is not None:
                        chaos.on_publish(cache, key, ordinal)
                    cache.put(
                        key,
                        {
                            "summary": summary,
                            "result": result if task.keep_result else None,
                            "wall_seconds": wall,
                        },
                    )
                    stats.published += 1
                    if chaos is not None:
                        chaos.on_post_publish(key, ordinal)
                    # Stop heartbeating before writing the done marker:
                    # a heartbeat in flight after release_done could
                    # rename a stale CLAIMED body over the marker,
                    # leaving a settled orphan for the sweep to clean.
                    heartbeat.drop(key)
                    leases.release_done(key, wall_seconds=wall)
                except Exception:
                    # A poisoned cell must not kill the worker (its
                    # peers would claim it and die one by one).  Drop
                    # the lease, remember not to retry it ourselves,
                    # and leave it unpublished — the coordinator's
                    # serial pass reproduces the error with full
                    # context.
                    heartbeat.drop(key)
                    leases.release_failed(key)
                    stats.failed += 1
                    failed.add(key)
                    remaining[key] = task
                    continue
                heartbeat.drop(key)

            if claimed and recent_walls:
                recent = recent_walls[-8:]
                mean = sum(recent) / len(recent)
                if mean < BATCH_TARGET_SECONDS:
                    batch_size = min(batch_size * 2, MAX_BATCH)
                else:
                    batch_size = 1
            elif not claimed and len(remaining) > len(failed):
                if not wait_for_all:
                    break
                # Everything left is held by live peers: poll until
                # they publish, or their leases go stale and the next
                # pass takes them over.
                sleep(poll_interval)

    stats.wall_seconds = time.perf_counter() - start
    return stats


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.fabric.worker`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-fabric-worker",
        description="claim, compute and publish grid cells from a shared cache",
    )
    parser.add_argument("--manifest", required=True, help="pickled CellTask list")
    parser.add_argument("--cache-dir", required=True, help="shared cache directory")
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--ttl", type=float, default=DEFAULT_TTL_SECONDS)
    parser.add_argument("--poll", type=float, default=0.2)
    parser.add_argument(
        "--stats-file", default=None, help="write the WorkerStats JSON here"
    )
    args = parser.parse_args(argv)

    tasks = load_manifest(args.manifest)
    cache = ResultCache(args.cache_dir)
    leases = LeaseStore(
        args.cache_dir, run_id=args.run_id, worker_id=args.worker_id,
        ttl_seconds=args.ttl,
    )
    floor_text = os.environ.get(CELL_FLOOR_ENV)
    cell_floor = float(floor_text) if floor_text else None
    chaos = None
    from ..chaos.plan import CHAOS_PLAN_ENV, ChaosPlan

    plan_path = os.environ.get(CHAOS_PLAN_ENV)
    if plan_path:
        chaos = ChaosPlan.load(plan_path, worker_id=args.worker_id)
        chaos.on_start()
    stats = run_worker(
        tasks, cache, leases, poll_interval=args.poll, cell_floor=cell_floor,
        chaos=chaos,
    )
    if args.stats_file:
        atomic_write_text(
            args.stats_file, json.dumps(stats.to_dict(), sort_keys=True) + "\n"
        )
    print(
        f"[fabric] worker {stats.worker_id}: {stats.computed} computed, "
        f"{stats.skipped} skipped, {stats.stolen} stolen, "
        f"{stats.wall_seconds:.2f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
