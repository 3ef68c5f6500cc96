"""The grid driver: pre-scan, dispatch, stream, aggregate.

:func:`run_grid_fabric` runs every grid in this repository, serial or
distributed, and returns one shape of report.  The division of labour:

* the **backend** makes results appear in the shared cache (however it
  likes — local subprocesses, remote hosts); no backend means the grid
  runs serially in-process;
* the **coordinator** first merges *twins* — tasks with one cache key —
  into one task (keeping the full result if any twin asks for it), so
  each distinct cell is computed once, serially or on a fleet, and
  fans its outcome or failure out to every twin at its own index.  It
  pre-scans the cache, streams results out of it *as workers publish
  them* (emitting progress), attributes provenance from the lease
  journal, turns unpublished cells that killed a fleet worker into
  :class:`~repro.experiments.parallel.CellFailure` records, and
  computes the leftovers — unpicklable or uncacheable cells, cells
  no worker could publish, a lone pending cell, or the whole grid when
  there is no backend — serially in-process.

A cell may carry a :class:`~repro.workload.scenarios.ScenarioRecipe`
instead of a built scenario.  The coordinator never builds one for the
fleet: the manifest ships the recipe, and each worker builds the
scenarios of the cells it claims.  Its own serial pass builds through a
:class:`~repro.workload.scenarios.ScenarioBuilds` that ends with the
pass.

Streaming keeps the coordinator's memory at O(grid) summaries: fleet
cells travel as summaries only (``result=None`` in the cache envelope
unless the task asked for its full result), so it never materializes
every :class:`~repro.simulator.results.SimulationResult` no matter how
many workers feed it.

Static sharding (:func:`shard_tasks`) is the degraded mode for fleets
*without* a shared cache directory: shard ``k`` of ``n`` computes the
cells with ``index % n == k`` and nothing else, so ``n`` disjoint
invocations cover the grid exactly once with zero coordination.
"""

from __future__ import annotations

import glob
import json
import sys
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ExperimentExecutionError, WorkerDied
from ..experiments.cache import ResultCache
from ..experiments.parallel import (
    PROVENANCE_CACHE_HIT,
    PROVENANCE_CLAIMED_ELSEWHERE,
    PROVENANCE_COMPUTED,
    CellFailure,
    CellOutcome,
    CellTask,
    GridReport,
    _outcome,
    _portable_tasks,
    _simulate_task,
)
from ..workload.scenarios import ScenarioBuilds
from .backends import Backend, BackendError, new_run_id
from .lease import DEFAULT_TTL_SECONDS, DONE, LeaseStore

__all__ = ["FabricReport", "run_grid_fabric", "shard_tasks"]

#: Report label of a grid run without a backend (serial, in-process).
SERIAL_BACKEND_NAME = "local:1"


@dataclass(frozen=True)
class FabricReport(GridReport):
    """A :class:`GridReport` plus what the fabric knows about the run."""

    backend: str = ""
    run_id: str = ""
    #: Summed WorkerStats counters across the fleet (empty for
    #: serial runs).
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


def _stream_fleet(
    tasks: Sequence[CellTask],
    backend: Backend,
    cache: ResultCache,
    run_id: str,
    lease_ttl: float,
    poll_interval: float,
    record: Callable[[CellOutcome], None],
) -> List[CellTask]:
    """Run ``backend`` on ``tasks``, recording each cell as it is
    published; return the cells left unpublished, grid order."""
    leases = LeaseStore(
        cache.root, run_id=run_id, worker_id="coordinator", ttl_seconds=lease_ttl
    )
    backend_error: List[BaseException] = []

    def drive() -> None:
        try:
            backend.run(tasks, cache.root, run_id, lease_ttl=lease_ttl)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            backend_error.append(exc)

    thread = threading.Thread(target=drive, name="fabric-backend")
    thread.start()

    def provenance(key: str) -> str:
        lease = leases.read(key)
        if lease is not None and lease.status == DONE and lease.run_id != run_id:
            return PROVENANCE_CLAIMED_ELSEWHERE
        return PROVENANCE_COMPUTED

    # One task per key: run_grid_fabric merged the grid's twins.
    waiting: Dict[str, CellTask] = {task.cache_key: task for task in tasks}

    def sweep() -> None:
        for key in list(waiting):
            entry = cache.peek(key)
            if entry is None:
                continue
            task = waiting[key]
            if task.keep_result and entry.get("result") is None:
                continue  # a summary-only entry; the serial pass recomputes
            del waiting[key]
            source = provenance(key)
            if source == PROVENANCE_COMPUTED:
                # A worker stored it on this run's behalf.
                cache.stats.stores += 1
            record(
                _outcome(
                    task,
                    entry["summary"],
                    entry.get("result") if task.keep_result else None,
                    entry.get("wall_seconds", 0.0),
                    provenance=source,
                )
            )

    try:
        while thread.is_alive():
            sweep()
            # The backend's return ends the wait at once.
            thread.join(poll_interval)
    except BaseException:
        # Interrupted (Ctrl-C): stop a supervised fleet before
        # unwinding, or it would keep restarting its workers.
        drain = getattr(backend, "request_drain", None)
        if drain is not None:
            drain()
            thread.join()
        raise
    thread.join()
    sweep()

    left = sorted(waiting.values(), key=lambda t: t.index)
    if backend_error:
        exc = backend_error[0]
        if isinstance(exc, BackendError):
            raise exc
        print(
            f"[fabric] backend {backend.name} failed "
            f"({type(exc).__name__}: {exc}); recomputing "
            f"{len(left)} cell(s) serially",
            file=sys.stderr,
        )
    return left


def run_grid_fabric(
    tasks: Sequence[CellTask],
    backend: Optional[Backend],
    cache: Optional[ResultCache] = None,
    *,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    registry=None,
    keep_going: bool = False,
    lease_ttl: float = DEFAULT_TTL_SECONDS,
    poll_interval: float = 0.1,
    run_id: Optional[str] = None,
) -> FabricReport:
    """Execute a grid, on a backend or serially; return a streamed report.

    Args:
        tasks: the grid, as built by
            :func:`~repro.experiments.parallel.make_cell_task`.
        backend: any :class:`~repro.fabric.backends.Backend`, or
            ``None`` to run the grid serially in-process.
        cache: the shared result cache — consulted before dispatch,
            updated with every fresh result, and the fleet's
            coordination medium.  ``None`` disables caching; a fleet
            then coordinates through a temporary cache deleted after
            the run.
        progress: per-cell callback (cache hits included, completion
            order), called once per distinct cell: twins share one
            call; ``add_total`` is honoured once for the whole grid.
        registry: optional
            :class:`~repro.telemetry.registry.MetricsRegistry`; the
            run publishes ``repro_fabric_cells{backend=,state=}``
            gauges (claimed / computed / stolen / lease_expired /
            skipped / failed from the fleet's stats, plus this
            coordinator's cache_hit / claimed_elsewhere attribution).
        keep_going: degrade to structured failures instead of raising
            on the first failed cell.
        lease_ttl: heartbeat age after which workers steal leases.
        poll_interval: coordinator cache-poll cadence.
        run_id: explicit run identity (tests); fresh by default.

    Raises:
        BackendError: the backend could not run at all — never for
            individual cell failures.
        ExperimentExecutionError: a cell failed and ``keep_going`` is
            off; carries every completed cell, in grid order.
    """
    run_id = run_id or new_run_id()
    # --- merge twins: tasks with one cache key are one computation,
    # which keeps the full result if any twin asks for it.
    merged: Dict[object, CellTask] = {}  # cache key (uncached: grid index) -> task
    for task in tasks:
        key = task.cache_key or task.index
        first = merged.setdefault(key, task)
        if task.keep_result and not first.keep_result:
            merged[key] = replace(first, keep_result=True)
    unique = list(merged.values())

    def merged_index(task: CellTask) -> int:
        return merged[task.cache_key or task.index].index

    if progress is not None:
        add_total = getattr(progress, "add_total", None)
        if add_total is not None:
            add_total(len(unique))

    outcomes: Dict[int, CellOutcome] = {}
    failures: Dict[int, CellFailure] = {}

    def record(outcome: CellOutcome) -> None:
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress(outcome)

    def settled(task: CellTask) -> Optional[CellOutcome]:
        """``task``'s outcome: its merged task's, with the result only if it asked."""
        got = outcomes.get(merged_index(task))
        if got is None or (got.index == task.index and (task.keep_result or got.result is None)):
            return got
        result = got.result if task.keep_result else None
        return _outcome(task, got.summary, result, got.wall_seconds, got.provenance)

    def fail(task: CellTask, exc: BaseException, attempts: int) -> None:
        scheduler_name = task.scheduler.name if task.scheduler else "RoundRobin"
        if not keep_going:
            raise ExperimentExecutionError(
                task.scenario.name,
                task.policy.name,
                scheduler_name,
                exc,
                # Grid order, not completion order: error reports must
                # be stable however the fleet interleaved the cells.
                completed_cells=tuple(filter(None, map(settled, tasks))),
            ) from exc
        failures[task.index] = CellFailure(
            index=task.index,
            cell_id=task.cell_id,
            scenario_name=task.scenario.name,
            policy_name=task.policy.name,
            scheduler_name=scheduler_name,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            error=exc,
        )

    # --- pre-scan: serve what the cache already holds
    pending: List[CellTask] = []
    summary_only = set()  # keep_result cells whose entry lacks the result
    for task in unique:
        entry = cache.get(task.cache_key) if cache is not None and task.cache_key else None
        if entry is not None and (
            not task.keep_result or entry.get("result") is not None
        ):
            record(
                _outcome(
                    task,
                    entry["summary"],
                    entry.get("result") if task.keep_result else None,
                    entry.get("wall_seconds", 0.0),
                    provenance=PROVENANCE_CACHE_HIT,
                )
            )
            continue
        if entry is not None:
            # present but missing the raw result this caller needs:
            # recompute (and overwrite); keep the stats honest.
            cache.stats.hits -= 1
            cache.stats.misses += 1
            summary_only.add(task.index)
        pending.append(task)

    # --- partition: what the fleet can carry vs what must stay local.
    # Fleet cells travel by cache entry, so they need a cache key, and
    # a worker must be able to load them; a summary-only entry would
    # read as published to every worker.  A lone pending cell gains
    # nothing from a fleet but its boot and polling costs.
    fleet_tasks: List[CellTask] = []
    if backend is not None and len(pending) > 1:
        fleet_tasks = _portable_tasks(
            [t for t in pending if t.cache_key and t.index not in summary_only]
        )
    in_fleet = {t.index for t in fleet_tasks}
    serial_tasks = [t for t in pending if t.index not in in_fleet]

    worker_totals: Dict[str, int] = {}
    if fleet_tasks:
        with tempfile.TemporaryDirectory(
            prefix="repro-grid-", ignore_cleanup_errors=True
        ) as scratch:
            # Without a cache the fleet coordinates through a scratch one.
            fleet = cache if cache is not None else ResultCache(scratch)
            left = _stream_fleet(
                fleet_tasks, backend, fleet, run_id, lease_ttl,
                poll_interval, record,
            )
            worker_totals = _sum_worker_stats(Path(fleet.root), run_id)
        stats = getattr(backend, "last_supervisor_stats", None)
        cell_deaths = stats.cell_deaths if stats is not None else {}
        for task in left:
            deaths = cell_deaths.get(task.cache_key)
            if deaths:
                # Never recomputed in-process: the cell killed a worker
                # and would kill the coordinator the same way.
                fail(task, WorkerDied(task.cell_id, deaths), deaths)
            else:
                serial_tasks.append(task)
        serial_tasks.sort(key=lambda t: t.index)

    # --- the serial pass: cells sharing a recipe share one build, and
    # the builds go when the pass ends.
    builds = ScenarioBuilds()
    for task in serial_tasks:
        try:
            _, summary, result, wall = _simulate_task(builds.resolve(task))
        except Exception as exc:
            fail(task, exc, 1)
            continue
        if cache is not None and task.cache_key:
            cache.put(
                task.cache_key,
                {"summary": summary, "result": result, "wall_seconds": wall},
            )
        record(_outcome(task, summary, result, wall))

    backend_name = backend.name if backend is not None else SERIAL_BACKEND_NAME
    # --- fan out: every twin gets the merged task's outcome or failure
    report = FabricReport(
        outcomes=tuple(map(settled, tasks)),
        failures=tuple(
            replace(failures[first], index=t.index)
            for t in tasks
            if (first := merged_index(t)) in failures
        ),
        backend=backend_name,
        run_id=run_id,
        worker_totals=tuple(sorted(worker_totals.items())),
    )

    if registry is not None:
        # Fleet-side states from the workers' own counters, falling
        # back to this coordinator's attribution when there are none
        # (serial runs); plus the coordinator-only provenances either
        # way.
        provenance_counts = report.provenance_counts()
        states = {
            state: worker_totals[key]
            for key, state in (
                ("claimed", "claimed"), ("computed", "computed"),
                ("stolen", "stolen"), ("lease_lost", "lease_expired"),
                ("skipped", "skipped"), ("failed", "failed"),
            )
            if key in worker_totals
        }
        states.setdefault("computed", provenance_counts.get("computed", 0))
        for provenance in ("cache_hit", "claimed_elsewhere"):
            if provenance in provenance_counts:
                states[provenance] = provenance_counts[provenance]
        cells = registry.gauge(
            "repro_fabric_cells",
            "Grid cells by fabric state for the last coordinated run",
            ("backend", "state"),
        )
        for state in sorted(states):
            cells.labels(backend=backend_name, state=state).set(states[state])
        supervisor_stats = getattr(backend, "last_supervisor_stats", None)
        if supervisor_stats is not None:
            registry.gauge(
                "repro_fabric_restarts",
                "Worker restarts the fleet supervisor performed in the "
                "last coordinated run",
                ("backend",),
            ).labels(backend=backend_name).set(supervisor_stats.restarts)
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
                events.labels(backend=backend_name, event=event).set(value)

    return report
