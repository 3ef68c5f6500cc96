"""The fabric grid driver: dispatch, stream, aggregate.

:func:`run_grid_fabric` is the distributed sibling of
:func:`~repro.experiments.parallel.run_grid_parallel` and returns the
same shape of report.  The division of labour:

* the **backend** makes results appear in the shared cache (however it
  likes — pool, subprocesses, remote hosts);
* the **coordinator** pre-scans cache and checkpoint, streams results
  out of the cache *as workers publish them* (emitting progress and
  journalling the checkpoint cell by cell), attributes provenance from
  the lease journal, and computes the leftovers — unpicklable,
  uncacheable, ``keep_result`` or worker-poisoned cells — serially
  in-process.

Streaming is load-bearing, not cosmetic: fabric cells travel as
summaries only (``result=None`` in the cache envelope unless the task
asked otherwise), so the coordinator's memory is O(grid) summaries —
it never materializes all :class:`~repro.simulator.results.SimulationResult`
objects no matter how many workers feed it.

Static sharding (:func:`shard_tasks`) is the degraded mode for fleets
*without* a shared cache directory: shard ``k`` of ``n`` computes the
cells with ``index % n == k`` and nothing else, so ``n`` disjoint
invocations cover the grid exactly once with zero coordination.
"""

from __future__ import annotations

import glob
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..experiments.cache import ResultCache
from ..experiments.checkpoint import GridCheckpoint
from ..experiments.parallel import (
    PROVENANCE_CLAIMED_ELSEWHERE,
    PROVENANCE_COMPUTED,
    CellOutcome,
    CellTask,
    GridReport,
    _is_picklable,
    _outcome,
    run_grid_parallel,
)
from .backends import Backend, BackendError, new_run_id
from .lease import DEFAULT_TTL_SECONDS, DONE, LeaseStore

__all__ = ["FabricReport", "run_grid_fabric", "shard_tasks"]


@dataclass(frozen=True)
class FabricReport(GridReport):
    """A :class:`GridReport` plus what the fabric knows about the run."""

    backend: str = ""
    run_id: str = ""
    #: Summed WorkerStats counters across the fleet (empty for
    #: backends that do not emit per-worker stats files).
    worker_totals: Tuple[Tuple[str, int], ...] = ()


def shard_tasks(
    tasks: Sequence[CellTask], shard_id: int, num_shards: int
) -> List[CellTask]:
    """The static shard ``shard_id`` of ``num_shards`` of a grid.

    Cells are assigned by ``task.index % num_shards``, so the shards
    of one grid are disjoint, cover it exactly, and are stable across
    invocations — ``n`` crontab entries with ``--shard-id 0..n-1``
    compute the grid once with no shared state at all.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard_id < num_shards:
        raise ConfigurationError(
            f"shard_id must be in [0, {num_shards}), got {shard_id}"
        )
    return [t for t in tasks if t.index % num_shards == shard_id]


class _ForwardOnly:
    """Progress wrapper hiding ``add_total`` from nested grid runners.

    The coordinator pre-registers the whole grid once; the serial
    leftovers pass must not register its subset again.
    """

    def __init__(self, progress: Callable[[CellOutcome], None]) -> None:
        self._progress = progress

    def __call__(self, outcome: CellOutcome) -> None:
        self._progress(outcome)


def _sum_worker_stats(cache_root: Path, run_id: str) -> Dict[str, int]:
    """Sum the fleet's WorkerStats JSON files (empty dict when none)."""
    totals: Dict[str, int] = {}
    pattern = str(cache_root / "manifests" / f"{run_id}-w*.stats.json")
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stats = json.load(handle)
        except (OSError, ValueError):
            continue
        for key, value in stats.items():
            if isinstance(value, (int, float)) and key != "wall_seconds":
                totals[key] = totals.get(key, 0) + int(value)
    return totals


def _record_gauges(registry, backend_name: str, states: Dict[str, int]) -> None:
    """Publish per-backend fabric gauges into a metrics registry."""
    gauge = registry.gauge(
        "repro_fabric_cells",
        "Grid cells by fabric state for the last coordinated run",
        ("backend", "state"),
    )
    for state in sorted(states):
        gauge.labels(backend=backend_name, state=state).set(states[state])


def run_grid_fabric(
    tasks: Sequence[CellTask],
    backend: Backend,
    cache: ResultCache,
    *,
    checkpoint: Optional[GridCheckpoint] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    registry=None,
    keep_going: bool = False,
    lease_ttl: float = DEFAULT_TTL_SECONDS,
    poll_interval: float = 0.1,
    run_id: Optional[str] = None,
) -> FabricReport:
    """Execute a grid on an execution backend; return a streamed report.

    Args:
        tasks: the grid, as built by
            :func:`~repro.experiments.parallel.make_cell_task`.
        backend: any :class:`~repro.fabric.backends.Backend`.
        cache: the shared result cache — the fabric's coordination
            medium, consulted before dispatch and polled during it.
        checkpoint: optional grid checkpoint; pre-scanned like the
            cache and journalled as fabric results stream in, so an
            interrupted coordinated run resumes exactly like a serial
            one.
        progress: per-cell callback (cache hits included, completion
            order); ``add_total`` is honoured once for the whole grid.
        registry: optional
            :class:`~repro.telemetry.registry.MetricsRegistry`; the
            run publishes ``repro_fabric_cells{backend=,state=}``
            gauges (claimed / computed / stolen / lease_expired /
            skipped / failed from the fleet's stats, plus this
            coordinator's cache_hit / checkpoint / claimed_elsewhere
            attribution).
        keep_going: degrade to structured failures instead of raising
            on the first failed cell (the serial leftovers pass owns
            failure semantics, exactly like ``run_grid_parallel``).
        lease_ttl: heartbeat age after which workers steal leases.
        poll_interval: coordinator cache-poll cadence.
        run_id: explicit run identity (tests); fresh by default.

    Raises:
        BackendError: the backend could not run at all — never for
            individual cell failures.
        ExperimentExecutionError: a cell failed and ``keep_going`` is
            off.
    """
    run_id = run_id or new_run_id()
    if progress is not None:
        add_total = getattr(progress, "add_total", None)
        if add_total is not None:
            add_total(len(tasks))
        progress = _ForwardOnly(progress)

    outcomes: Dict[int, CellOutcome] = {}

    def record(outcome: CellOutcome) -> None:
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress(outcome)

    # --- pre-scan: cache, then checkpoint (same rules as the serial path)
    pending: List[CellTask] = []
    for task in tasks:
        entry = cache.get(task.cache_key) if task.cache_key else None
        if entry is not None and (
            not task.keep_result or entry.get("result") is not None
        ):
            record(
                _outcome(
                    task,
                    entry["summary"],
                    entry.get("result") if task.keep_result else None,
                    entry.get("wall_seconds", 0.0),
                    from_cache=True,
                )
            )
            continue
        if entry is not None:
            cache.stats.hits -= 1
            cache.stats.misses += 1
        if checkpoint is not None and task.cache_key:
            saved = checkpoint.get(task.cell_id, task.cache_key)
            if saved is not None and (
                not task.keep_result or saved.get("result") is not None
            ):
                record(
                    _outcome(
                        task,
                        saved["summary"],
                        saved.get("result") if task.keep_result else None,
                        saved.get("wall_seconds", 0.0),
                        from_cache=False,
                        from_checkpoint=True,
                    )
                )
                continue
        pending.append(task)

    # --- partition: what the fabric can carry vs what must stay local.
    # Fabric cells travel by cache entry, so they need a cache key and
    # must not need the full result shipped back; unpicklable payloads
    # cannot cross a process boundary at all.
    fabric_tasks = [
        t
        for t in pending
        if t.cache_key and not t.keep_result and _is_picklable(t)
    ]
    fabric_keys = {t.cache_key for t in fabric_tasks}
    serial_tasks = [t for t in pending if t.cache_key not in fabric_keys]

    worker_totals: Dict[str, int] = {}
    if fabric_tasks:
        coordinator_leases = LeaseStore(
            cache.root, run_id=run_id, worker_id="coordinator",
            ttl_seconds=lease_ttl,
        )
        backend_error: List[BaseException] = []

        def drive() -> None:
            try:
                backend.run(
                    fabric_tasks, cache.root, run_id, lease_ttl=lease_ttl
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                backend_error.append(exc)

        thread = threading.Thread(target=drive, name="fabric-backend")
        thread.start()

        def attribute(task: CellTask) -> str:
            lease = coordinator_leases.read(task.cache_key)
            if (
                lease is not None
                and lease.status == DONE
                and lease.run_id != run_id
            ):
                return PROVENANCE_CLAIMED_ELSEWHERE
            return PROVENANCE_COMPUTED

        def sweep(waiting: Dict[str, CellTask]) -> None:
            for key in list(waiting):
                entry = cache.peek(key)
                if entry is None:
                    continue
                task = waiting.pop(key)
                provenance = attribute(task)
                wall = entry.get("wall_seconds", 0.0)
                if checkpoint is not None:
                    checkpoint.put(
                        task.cell_id,
                        key,
                        {
                            "summary": entry["summary"],
                            "result": None,
                            "wall_seconds": wall,
                        },
                    )
                record(
                    _outcome(
                        task,
                        entry["summary"],
                        None,
                        wall,
                        from_cache=False,
                        provenance=provenance,
                    )
                )

        waiting = {t.cache_key: t for t in fabric_tasks}
        while thread.is_alive():
            sweep(waiting)
            time.sleep(poll_interval)
        thread.join()
        sweep(waiting)

        if backend_error:
            exc = backend_error[0]
            if isinstance(exc, BackendError):
                raise exc
            # A cell-level failure inside the backend (e.g. the local
            # pool raising on a poisoned cell): the serial pass below
            # recomputes the stragglers and owns the failure report.
            print(
                f"[fabric] backend {backend.name} failed "
                f"({type(exc).__name__}: {exc}); recomputing "
                f"{len(waiting)} cell(s) serially",
                file=sys.stderr,
            )
        # Unpublished fabric cells (worker-poisoned or lost to a
        # backend failure) fall through to the serial pass.
        serial_tasks.extend(waiting.values())
        serial_tasks.sort(key=lambda t: t.index)
        worker_totals = _sum_worker_stats(Path(cache.root), run_id)

    serial_report: Optional[GridReport] = None
    if serial_tasks:
        serial_report = run_grid_parallel(
            serial_tasks,
            n_workers=1,
            cache=cache,
            checkpoint=checkpoint,
            keep_going=keep_going,
            progress=progress,
        )
        for outcome in serial_report.completed:
            outcomes[outcome.index] = outcome

    report = FabricReport(
        outcomes=tuple(outcomes.get(t.index) for t in tasks),
        failures=serial_report.failures if serial_report is not None else (),
        backend=backend.name,
        run_id=run_id,
        worker_totals=tuple(sorted(worker_totals.items())),
    )

    if registry is not None:
        # Fleet-side states from the workers' own counters, falling
        # back to this coordinator's attribution when the backend
        # emits no stats files (local pool); plus the coordinator-only
        # provenances either way.
        provenance_counts = report.provenance_counts()
        states: Dict[str, int] = {}
        for key, state in (
            ("claimed", "claimed"),
            ("computed", "computed"),
            ("stolen", "stolen"),
            ("lease_lost", "lease_expired"),
            ("skipped", "skipped"),
            ("failed", "failed"),
        ):
            if key in worker_totals:
                states[state] = worker_totals[key]
        states.setdefault("computed", provenance_counts.get("computed", 0))
        for provenance in ("cache_hit", "checkpoint", "claimed_elsewhere"):
            if provenance in provenance_counts:
                states[provenance] = provenance_counts[provenance]
        _record_gauges(registry, backend.name, states)
        supervisor_stats = getattr(backend, "last_supervisor_stats", None)
        if supervisor_stats is not None:
            registry.gauge(
                "repro_fabric_restarts",
                "Worker restarts the fleet supervisor performed in the "
                "last coordinated run",
                ("backend",),
            ).labels(backend=backend.name).set(supervisor_stats.restarts)
            events = registry.gauge(
                "repro_fabric_supervisor",
                "Fleet supervisor recovery actions in the last "
                "coordinated run",
                ("backend", "event"),
            )
            for event, value in (
                ("quarantined", supervisor_stats.quarantined),
                ("grown", supervisor_stats.grown),
                ("shrunk", supervisor_stats.shrunk),
                ("swept_leases", getattr(backend, "last_swept_leases", 0)),
            ):
                events.labels(backend=backend.name, event=event).set(value)

    return report
