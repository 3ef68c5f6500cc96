"""Grid cells and the local entry points that run them.

Every sweep in this repository — the paper's tables and figures, the
ablations, the fault sweep and the other
:class:`~repro.experiments.experiment.Experiment` entries, the fabric
presets, any user grid through
:class:`~repro.experiments.runner.ExperimentRunner` — reduces to the
same unit of work: simulate one
(scenario, policy, scheduler) *cell* and summarize it.  This module
owns that unit:

* :func:`make_cell_task` freezes a cell into a :class:`CellTask`,
  deriving a spawn-key-style child seed from the cell's identity (see
  :func:`~repro.experiments.cache.derive_cell_seed`) so results are
  bit-identical no matter which worker runs the cell or in what order;
* :func:`run_grid_parallel` and :func:`execute_cells` run a batch of
  tasks on this host: serially in-process for ``n_workers=1``, else on
  a supervised fleet of ``n_workers`` worker processes coordinating
  through the result cache (a temporary one when caching is off).

Both entry points delegate to the one grid driver,
:func:`repro.fabric.coordinator.run_grid_fabric`.  It pre-scans the
cache, streams fleet results, and computes the cells a fleet cannot
carry (unpicklable or uncacheable ones) serially in-process.  The
fleet's supervisor owns crash handling: a dead worker's cells are
released at once and retried by the next worker, and a cell that kills
``restart_budget`` workers becomes a structured :class:`CellFailure`.
With ``keep_going`` the grid degrades gracefully: completed cells are
returned in a :class:`GridReport` alongside the failures (grid order).
A grid resumes by running again over the same cache directory.

Each outcome reports its wall-clock seconds and where it came from
(``provenance``), making the speedup observable in benchmark logs and
the CLI.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..metrics.summary import PerformanceSummary, summarize
from ..simulator.config import SimulationConfig
from ..simulator.results import SimulationResult
from ..simulator.simulation import run_simulation
from ..workload.scenarios import ScenarioBuilds
from .cache import ResultCache, cell_cache_key, derive_cell_seed

__all__ = [
    "CellTask",
    "CellOutcome",
    "CellFailure",
    "GridReport",
    "PROVENANCE_COMPUTED",
    "PROVENANCE_CACHE_HIT",
    "PROVENANCE_CLAIMED_ELSEWHERE",
    "make_cell_task",
    "execute_cells",
    "run_grid_parallel",
]

#: This invocation actually ran the simulation.
PROVENANCE_COMPUTED = "computed"
#: Served from the content-addressed result cache (entry predates this run).
PROVENANCE_CACHE_HIT = "cache_hit"
#: Computed during this run by a *different* worker/host sharing the
#: cache (the fabric's work-claiming protocol; see :mod:`repro.fabric`).
PROVENANCE_CLAIMED_ELSEWHERE = "claimed_elsewhere"


@dataclass(frozen=True)
class CellTask:
    """One fully specified simulation cell, ready to run anywhere.

    Attributes:
        index: position in the grid (outcomes are returned in this
            order regardless of completion order).
        scenario: the workload + cluster to simulate: a built
            :class:`~repro.workload.scenarios.Scenario`, or a
            :class:`~repro.workload.scenarios.ScenarioRecipe` the grid
            pass that runs the cell builds.
        policy: the rescheduling policy instance.
        scheduler: the initial scheduler instance (``None`` = engine
            default round-robin).
        config: simulation config whose ``seed`` is already the derived
            per-cell child seed.
        cell_id: stable human-readable identity used for seed
            derivation and error messages.
        cache_key: content-addressed cache key, or ``None`` when the
            cell must not be cached.
        keep_result: ship the full :class:`SimulationResult` back (not
            just the summary).
        policy_spec: the canonical registry spec string the policy was
            built from (see :mod:`repro.policies`), or ``None`` when it
            was constructed directly.  Carried for provenance and
            telemetry labels only — never part of the cell identity,
            seed or cache key.
    """

    index: int
    scenario: object
    policy: object
    scheduler: Optional[object]
    config: SimulationConfig
    cell_id: str
    cache_key: Optional[str]
    keep_result: bool = False
    policy_spec: Optional[str] = None


@dataclass(frozen=True)
class CellOutcome:
    """The observable output of one executed (or cache-served) cell.

    ``wall_seconds`` is always the cell's *simulation* cost — for a
    cache hit, the cost recorded when the entry was computed — so logs
    can show how much time was saved; ``provenance`` says whether this
    invocation actually paid it and, if not, where the result came
    from: one of :data:`PROVENANCE_COMPUTED`,
    :data:`PROVENANCE_CACHE_HIT` or
    :data:`PROVENANCE_CLAIMED_ELSEWHERE`.  ``from_cache`` is the
    pre-provenance boolean, kept in sync for backward compatibility.
    """

    index: int
    scenario_name: str
    policy_name: str
    scheduler_name: str
    summary: PerformanceSummary
    result: Optional[SimulationResult]
    wall_seconds: float
    from_cache: bool
    seed: int
    provenance: str = PROVENANCE_COMPUTED
    policy_spec: Optional[str] = None


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that could not be completed.

    Attributes:
        index: the cell's grid position.
        cell_id: the cell's stable identity.
        scenario_name / policy_name / scheduler_name: the cell's naming,
            mirrored from the task for report rendering.
        error_type: exception class name (``"ValueError"``,
            ``"WorkerDied"``, ...).
        message: the exception message.
        attempts: how many executions were attempted (for
            ``WorkerDied``, how many worker processes the cell killed).
        error: the exception object itself.
    """

    index: int
    cell_id: str
    scenario_name: str
    policy_name: str
    scheduler_name: str
    error_type: str
    message: str
    attempts: int
    error: BaseException = field(repr=False)


@dataclass(frozen=True)
class GridReport:
    """Everything the grid driver knows about one grid run.

    ``outcomes`` is in grid order with ``None`` holes where cells
    failed (only possible under ``keep_going``); ``failures`` holds the
    corresponding :class:`CellFailure` entries, also in grid order, so
    reports are stable across runs regardless of completion order.
    """

    outcomes: Tuple[Optional[CellOutcome], ...]
    failures: Tuple[CellFailure, ...]

    @property
    def ok(self) -> bool:
        """Whether every cell completed."""
        return not self.failures

    @property
    def completed(self) -> Tuple[CellOutcome, ...]:
        """The completed outcomes, grid order, holes removed."""
        return tuple(o for o in self.outcomes if o is not None)

    def provenance_counts(self) -> Dict[str, int]:
        """How many completed cells came from each provenance.

        Keys are the ``PROVENANCE_*`` values that actually occurred,
        in fixed order, so two identical runs render identically.
        """
        counts: Dict[str, int] = {}
        for kind in (
            PROVENANCE_COMPUTED,
            PROVENANCE_CACHE_HIT,
            PROVENANCE_CLAIMED_ELSEWHERE,
        ):
            n = sum(1 for o in self.completed if o.provenance == kind)
            if n:
                counts[kind] = n
        return counts


def make_cell_task(
    index: int,
    scenario,
    policy,
    scheduler,
    config: SimulationConfig,
    keep_result: bool = False,
    variant: str = "",
    policy_spec: Optional[str] = None,
) -> CellTask:
    """Freeze one grid cell into a :class:`CellTask`.

    The cell's child seed is derived from ``config.seed`` and the cell
    identity (scenario name + seed, policy name, scheduler name) — not
    from call order — so two cells sharing a scenario but differing in
    policy never share a random stream, and re-running one cell alone
    reproduces its grid result exactly.

    ``variant`` extends the cell identity for grids where the *config*
    (not the scenario/policy/scheduler triple) distinguishes cells —
    e.g. the fault sweep's MTBF ladder — so such cells get distinct
    seeds and cache entries.  Empty (the default) keeps cell ids
    bit-identical to pre-variant builds.

    ``policy_spec`` (or, absent that, a ``spec`` attribute left on the
    policy by :func:`repro.policies.policy_from_spec`) rides along on
    the task for provenance records; it never enters the cell identity.
    """
    scheduler_name = scheduler.name if scheduler is not None else "RoundRobin"
    cell_id = f"{scenario.name}#{scenario.seed}|{policy.name}|{scheduler_name}"
    if variant:
        cell_id += f"|{variant}"
    cell_config = replace(config, seed=derive_cell_seed(config.seed, cell_id))
    return CellTask(
        index=index,
        scenario=scenario,
        policy=policy,
        scheduler=scheduler,
        config=cell_config,
        cell_id=cell_id,
        cache_key=cell_cache_key(scenario, policy, scheduler, cell_config),
        keep_result=keep_result,
        policy_spec=policy_spec or getattr(policy, "spec", None),
    )


def _simulate_task(task: CellTask) -> Tuple[int, PerformanceSummary, Optional[SimulationResult], float]:
    """Run one cell and time it (in-process, or inside a fleet worker).

    A cell that keeps only its summary runs without state samples:
    :func:`summarize` reads job records alone, and the sampler only
    reads engine state, so the summary is the same either way.  Samples
    stay on when the result is kept, when invariant checks (which run at
    sample ticks) are on, and when instrumentation is attached (its
    gauges are fed per tick).  ``task.config`` itself — and with it the
    cache key — is left as built.

    A recipe scenario is built here; a grid pass resolves it through
    its :class:`~repro.workload.scenarios.ScenarioBuilds` first
    (``builds.resolve(task)``), so cells sharing a scenario share one
    build.
    """
    scenario = ScenarioBuilds().get(task.scenario)
    config = task.config
    if not (
        task.keep_result
        or config.check_invariants
        or config.instrumentation.enabled
    ):
        config = replace(config, record_samples=False)
    start = time.perf_counter()
    result = run_simulation(
        scenario.trace,
        scenario.cluster,
        policy=task.policy,
        initial_scheduler=task.scheduler,
        config=config,
    )
    wall = time.perf_counter() - start
    summary = summarize(result)
    return task.index, summary, result if task.keep_result else None, wall


def _outcome(
    task: CellTask,
    summary,
    result,
    wall: float,
    provenance: str = PROVENANCE_COMPUTED,
) -> CellOutcome:
    return CellOutcome(
        index=task.index,
        scenario_name=task.scenario.name,
        policy_name=task.policy.name,
        scheduler_name=summary.scheduler_name,
        summary=summary,
        result=result,
        wall_seconds=wall,
        from_cache=provenance == PROVENANCE_CACHE_HIT,
        seed=task.config.seed,
        provenance=provenance,
        policy_spec=task.policy_spec,
    )


def _is_portable(payload: object) -> Optional[bytes]:
    """``payload`` pickled, if a fresh worker interpreter can load it.

    The payload (a task, or a list of them) must pickle, and must not
    reference anything defined in ``__main__``: a worker's ``__main__``
    is the worker itself, so such a class or function could not be
    found there.  The byte check is conservative; a false positive only
    costs a serial run.  Returns ``None`` for a payload that fails.
    """
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return None if b"__main__" in blob else blob


class PickledTasks(list):
    """A task list carrying its pickle, ``blob``, until ``write_manifest`` takes it."""

    def __init__(self, tasks: Sequence[CellTask], blob: bytes) -> None:
        super().__init__(tasks)
        self.blob: Optional[bytes] = blob


def _portable_tasks(tasks: Sequence[CellTask]) -> List[CellTask]:
    """The cells of ``tasks`` a worker can load, in order.

    One pickle of the whole list answers for every cell, and writes
    each scenario the cells share once (a list that passes carries that
    pickle); only a list that fails is checked cell by cell.
    """
    tasks = list(tasks)
    blob = _is_portable(tasks)
    if blob is not None:
        return PickledTasks(tasks, blob)
    return [t for t in tasks if _is_portable(t) is not None]


def run_grid_parallel(
    tasks: Sequence[CellTask],
    *,
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    keep_going: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> GridReport:
    """Execute a batch of cells on this host; return a report.

    Args:
        tasks: the cells, as built by :func:`make_cell_task`.
        n_workers: ``1`` runs everything serially in-process (no
            subprocess, no pickling); more runs the grid on a
            supervised fleet of up to ``n_workers`` worker processes
            (the ``local:N`` backend).
        cache: optional result cache consulted before any simulation
            and updated with every fresh result.  The fleet coordinates
            through it; without one it uses a temporary cache that is
            deleted afterwards.
        keep_going: degrade gracefully — record a structured
            :class:`CellFailure` per failed cell and keep executing the
            rest of the grid, instead of raising at the first failure.
        progress: optional callable invoked with each
            :class:`CellOutcome` as it completes — cache hits included,
            fleet cells as they are published (completion order, not
            grid order).  Cells sharing a cache key are computed and
            reported once.  If it has an ``add_total(count)`` method,
            that is called first with the number of distinct cells.

    Raises:
        ExperimentExecutionError: without ``keep_going``, when any cell
            fails; carries every completed cell, in grid order.
        ConfigurationError: for a non-positive ``n_workers``.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    # Imported here: the fabric package imports this module.
    from ..fabric.backends import backend_from_spec
    from ..fabric.coordinator import run_grid_fabric

    return run_grid_fabric(
        tasks,
        backend_from_spec(f"local:{n_workers}"),
        cache,
        keep_going=keep_going,
        progress=progress,
    )


def execute_cells(
    tasks: Sequence[CellTask],
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """Execute a batch of cells and return outcomes in grid order.

    The strict-mode wrapper over :func:`run_grid_parallel`: any cell
    that fails raises :class:`~repro.errors.ExperimentExecutionError`
    (carrying the completed cells, grid order) instead of producing a
    partial report.

    Raises:
        ExperimentExecutionError: when any cell fails.
        ConfigurationError: for a non-positive ``n_workers``.
    """
    grid = run_grid_parallel(
        tasks, n_workers=n_workers, cache=cache, progress=progress
    )
    return list(grid.outcomes)
