"""Distributed experiment fabric: cache-coordinated grid sharding.

The paper's grids are embarrassingly parallel — every cell is a pure
function of its content-addressed identity (see
:mod:`repro.experiments.cache`) — so the only coordination a fleet of
workers needs is *who computes what*.  This package provides exactly
that, with the shared result cache directory doubling as the
coordination medium:

* :mod:`.lease` — the work-claiming protocol.  A worker atomically
  claims a cell by creating ``<cache>/leases/<key>.lease`` with
  ``O_CREAT | O_EXCL``; it heartbeats the lease while computing,
  publishes the result through the cache's atomic-write path, then
  replaces the lease with a ``done`` marker.  A worker that dies
  mid-cell is detected by heartbeat age and its lease is taken over.
* :mod:`.worker` — the claim → compute → publish loop, importable
  (:func:`~repro.fabric.worker.run_worker`) and runnable
  (``python -m repro.fabric.worker``), with adaptive batching of
  sub-100ms cells.
* :mod:`.backends` — pluggable execution backends behind the
  :class:`~repro.fabric.backends.Backend` protocol:
  :class:`~repro.fabric.backends.LocalPoolBackend` (in-process pool)
  and :class:`~repro.fabric.backends.SubprocessWorkerBackend` (N
  independent worker processes).
* :mod:`.coordinator` — :func:`~repro.fabric.coordinator.run_grid_fabric`,
  the grid driver: cache/checkpoint pre-scan, backend dispatch,
  streaming result aggregation (summaries only — the coordinator never
  materializes every ``SimulationResult``), per-backend telemetry
  gauges, and static sharding (:func:`~repro.fabric.coordinator.shard_tasks`)
  as the no-shared-cache fallback.
* :mod:`.supervisor` — the self-healing layer:
  :class:`~repro.fabric.supervisor.FleetSupervisor` restarts dead
  workers with exponential backoff and deterministic jitter,
  quarantines crash-loopers after a budget, grows/shrinks the fleet
  elastically as the grid drains, and drains gracefully on request;
  :class:`~repro.fabric.supervisor.SupervisedWorkerBackend` wraps it
  as a drop-in backend (``--backend supervised:1-4``).
* :mod:`.presets` — named grid builders for the CLI and benchmarks.

Determinism contract: because every cell's seed derives from its
identity (:func:`~repro.experiments.cache.derive_cell_seed`) and
publishes via atomic replace, a sharded run is bit-identical to a
serial run — same per-cell digests — no matter how many workers race,
die, or duplicate work.  Duplicated computation is wasted time, never
wrong results.
"""

from .backends import (
    Backend,
    BackendError,
    LocalPoolBackend,
    SubprocessWorkerBackend,
    backend_from_spec,
)
from .coordinator import FabricReport, run_grid_fabric, shard_tasks
from .lease import (
    CLAIMED,
    DONE,
    Lease,
    LeaseStore,
)
from .presets import GRID_PRESETS, build_grid
from .supervisor import (
    FleetSupervisor,
    SupervisedWorkerBackend,
    SupervisorConfig,
    SupervisorStats,
)
from .worker import WorkerStats, run_worker

__all__ = [
    # lease protocol
    "Lease",
    "LeaseStore",
    "CLAIMED",
    "DONE",
    # worker loop
    "run_worker",
    "WorkerStats",
    # backends
    "Backend",
    "BackendError",
    "LocalPoolBackend",
    "SubprocessWorkerBackend",
    "backend_from_spec",
    # supervision
    "FleetSupervisor",
    "SupervisedWorkerBackend",
    "SupervisorConfig",
    "SupervisorStats",
    # coordinator
    "run_grid_fabric",
    "shard_tasks",
    "FabricReport",
    # grid presets
    "build_grid",
    "GRID_PRESETS",
]
