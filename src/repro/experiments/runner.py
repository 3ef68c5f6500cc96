"""A grid runner for custom experiment matrices.

The table/figure functions cover the paper; :class:`ExperimentRunner`
is for users who want their own (scenario x policy x scheduler) grids
with consistent configuration and labelled results.  The runner is the
thin policy-facing layer over the shared execution backend
(:mod:`repro.experiments.parallel`): it supports process-pool parallel
execution (``n_workers``), content-addressed on-disk result caching
(``cache_dir`` / :mod:`repro.experiments.cache`), and per-cell derived
seeds, so a grid's results are bit-identical whether it runs serially,
in parallel, or from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.policy import ReschedulingPolicy
from ..errors import ConfigurationError, ExperimentExecutionError
from ..policies import canonical_spec, policy_from_spec
from ..metrics.summary import PerformanceSummary
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..simulator.results import SimulationResult
from ..workload.scenarios import Scenario
from .cache import CacheStats, ResultCache, open_cache
from .checkpoint import GridCheckpoint
from .parallel import CellFailure, make_cell_task, run_grid_parallel

__all__ = ["ExperimentCell", "ExperimentRunner"]


@dataclass(frozen=True)
class ExperimentCell:
    """One (scenario, policy, scheduler) run with its outputs.

    Attributes:
        scenario_name: name of the scenario simulated.
        policy_name: name of the rescheduling policy.
        scheduler_name: name of the initial scheduler.
        summary: the run's performance summary.
        result: the full simulation result (``None`` unless the runner
            was asked to keep raw results).
        wall_seconds: wall-clock seconds this cell took in this
            invocation (the original simulation time when served from
            cache, so speedups stay observable).
        from_cache: True when the cell was served from the on-disk
            result cache instead of being simulated.
        seed: the derived per-cell simulation seed (stable across runs
            and worker orderings).
        from_checkpoint: True when the cell was resumed from a grid
            checkpoint instead of being simulated.
        provenance: where the result came from — one of the
            ``PROVENANCE_*`` constants in
            :mod:`repro.experiments.parallel` (``computed``,
            ``cache_hit``, ``checkpoint`` or ``claimed_elsewhere``).
        policy_spec: the canonical registry spec string the policy was
            built from (``None`` when it was constructed directly).
    """

    scenario_name: str
    policy_name: str
    scheduler_name: str
    summary: PerformanceSummary
    result: Optional[SimulationResult] = None
    wall_seconds: float = 0.0
    from_cache: bool = False
    seed: Optional[int] = None
    from_checkpoint: bool = False
    provenance: str = "computed"
    policy_spec: Optional[str] = None


def _factory_name(factory: Callable) -> str:
    return getattr(factory, "__name__", None) or repr(factory)


class ExperimentRunner:
    """Runs a labelled grid of simulations.

    Example:
        >>> from repro import busy_week, no_res, res_sus_util
        >>> runner = ExperimentRunner(n_workers=4)          # doctest: +SKIP
        >>> cells = runner.run(
        ...     scenarios=[busy_week(scale=0.05)],
        ...     policies=[no_res, "ResSusUtil", "dfrs:share=0.5"],
        ... )   # doctest: +SKIP

    Args:
        config: simulation config shared by every cell; each cell's
            ``seed`` is re-derived from ``config.seed`` and the cell's
            identity (never from call order), so cells are independent
            and reproducible one-by-one.
        keep_results: keep each cell's full
            :class:`~repro.simulator.results.SimulationResult` (memory
            heavy for big grids).
        n_workers: number of worker processes; ``1`` (the default) runs
            serially in-process.  Parallel results are bit-identical to
            serial ones.  Cells whose policy cannot be pickled fall
            back to serial execution automatically.
        cache_dir: directory for the content-addressed result cache;
            defaults to ``$REPRO_CACHE_DIR`` when set.  ``None`` (and no
            environment override) disables caching.
        use_cache: force caching on/off regardless of ``cache_dir``
            resolution; ``use_cache=False`` never touches the disk.
        progress: optional callable invoked with each completed
            :class:`~repro.experiments.parallel.CellOutcome` (cache
            hits included) as the grid executes — e.g. a
            :class:`~repro.telemetry.ProgressReporter` heartbeat.
        cell_timeout: optional seconds the grid may go without
            completing a cell before the stuck cells are failed (see
            :func:`~repro.experiments.parallel.run_grid_parallel`).
        max_attempts: total executions allowed per cell whose worker
            process died; deterministic errors are never retried.
        retry_backoff: base seconds slept after a worker-pool break,
            doubling per subsequent break.
        keep_going: do not raise on cell failures — return the
            completed cells and expose the structured failures via
            :attr:`last_failures`.
        checkpoint_path: optional path for a
            :class:`~repro.experiments.checkpoint.GridCheckpoint`;
            completed cells are journalled there so an interrupted grid
            resumes without recomputing them.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        keep_results: bool = False,
        n_workers: int = 1,
        cache_dir: Optional[object] = None,
        use_cache: Optional[bool] = None,
        progress: Optional[Callable] = None,
        cell_timeout: Optional[float] = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.5,
        keep_going: bool = False,
        checkpoint_path: Optional[object] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self._config = config or SimulationConfig(strict=False)
        self._keep_results = keep_results
        self._n_workers = n_workers
        self._cache = open_cache(cache_dir, use_cache)
        self._progress = progress
        self._cell_timeout = cell_timeout
        self._max_attempts = max_attempts
        self._retry_backoff = retry_backoff
        self._keep_going = keep_going
        self._checkpoint = (
            GridCheckpoint(checkpoint_path) if checkpoint_path is not None else None
        )
        self._last_failures: Tuple[CellFailure, ...] = ()

    @property
    def cache(self) -> Optional[ResultCache]:
        """The result cache in use, if any."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/store/eviction counters (all zero when caching is off)."""
        return self._cache.stats if self._cache is not None else CacheStats()

    @property
    def checkpoint(self) -> Optional[GridCheckpoint]:
        """The grid checkpoint in use, if any."""
        return self._checkpoint

    @property
    def last_failures(self) -> Tuple[CellFailure, ...]:
        """Structured failures from the most recent ``keep_going`` grid.

        Empty when every cell completed (and always empty without
        ``keep_going``, where failures raise instead).
        """
        return self._last_failures

    def run(
        self,
        scenarios: Sequence[Scenario],
        policies: Sequence[Union[Callable[[], ReschedulingPolicy], str]],
        scheduler_factories: Optional[
            Sequence[Callable[[], InitialScheduler]]
        ] = None,
        *,
        backend: Optional[str] = None,
    ) -> List[ExperimentCell]:
        """Run the full cross product and return one cell per run.

        The one grid entry point: serial, process-pool parallel and
        fabric execution all route through here, selected by
        ``backend``.  Results are bit-identical across backends — the
        per-cell seed derives from the cell's identity, never from how
        or where it ran.

        Args:
            scenarios: the scenarios to sweep.
            policies: zero-arg policy factories and/or registry spec
                strings (``"ResSusUtil"``, ``"dfrs:share=0.5"``, ...);
                strings resolve through :mod:`repro.policies` with the
                first scenario's ``wait_threshold`` as the default.
            scheduler_factories: initial-scheduler factories; defaults
                to round-robin only.
            backend: execution backend spec —

                * ``None`` (default): the runner's ``n_workers``
                  (serial for 1, else an in-process pool);
                * ``"serial"``: force in-process serial execution;
                * ``"local"`` / ``"local:N"``: process pool with the
                  runner's / ``N`` workers;
                * ``"subprocess:N"`` / ``"supervised:MIN-MAX"``: the
                  distributed fabric
                  (:func:`~repro.fabric.coordinator.run_grid_fabric`);
                  requires the runner to have a result cache, the
                  fabric's coordination medium.

        Raises:
            ExperimentExecutionError: when building or running any cell
                fails (unless the runner was built with ``keep_going``,
                in which case run failures land in
                :attr:`last_failures` and only factory errors raise).
                The error names the failing (scenario, policy,
                scheduler) cell and carries every
                :class:`ExperimentCell` completed before the failure in
                ``completed_cells``, so a long sweep's finished work is
                never lost.
            ConfigurationError: for an empty grid, an unknown
                ``backend`` spec, or a fabric backend without a cache.
        """
        self._last_failures = ()
        if not scenarios:
            raise ConfigurationError("run needs at least one scenario")
        if not policies:
            raise ConfigurationError("run needs at least one policy")
        policy_factories = self._policy_factories(scenarios, policies)
        scheduler_factories = scheduler_factories or [RoundRobinScheduler]
        n_workers, fabric_spec = self._resolve_backend(backend)

        # Register the whole grid with the reporter here (the serial
        # path below executes cell-by-cell, which would otherwise feed
        # add_total one cell at a time and ruin the ETA); the callback
        # handed to the backend deliberately hides add_total.
        progress = self._progress
        notify = None
        if progress is not None:
            add_total = getattr(progress, "add_total", None)
            if add_total is not None:
                add_total(
                    len(scenarios) * len(scheduler_factories) * len(policy_factories)
                )

            def notify(outcome) -> None:
                progress(outcome)

        serial = fabric_spec is None and n_workers == 1
        cells: List[ExperimentCell] = []
        tasks = []
        index = 0
        for scenario in scenarios:
            for scheduler_factory in scheduler_factories:
                for policy_factory in policy_factories:
                    try:
                        policy = policy_factory()
                        scheduler = scheduler_factory()
                    except Exception as exc:
                        raise ExperimentExecutionError(
                            scenario.name,
                            _factory_name(policy_factory),
                            _factory_name(scheduler_factory),
                            exc,
                            completed_cells=tuple(cells),
                        ) from exc
                    task = make_cell_task(
                        index,
                        scenario,
                        policy,
                        scheduler,
                        self._config,
                        keep_result=self._keep_results,
                    )
                    index += 1
                    if serial:
                        cells.extend(
                            self._execute(
                                [task], n_workers=1, done=cells, progress=notify
                            )
                        )
                    else:
                        tasks.append(task)
        if fabric_spec is not None:
            return self._execute_fabric(tasks, fabric_spec, progress=notify)
        if tasks:
            cells.extend(
                self._execute(
                    tasks, n_workers=n_workers, done=cells, progress=notify
                )
            )
        return cells

    def _policy_factories(
        self,
        scenarios: Sequence[Scenario],
        policies: Sequence[Union[Callable[[], ReschedulingPolicy], str]],
    ) -> List[Callable[[], ReschedulingPolicy]]:
        """Resolve spec-string entries through the policy registry."""
        wait_threshold = scenarios[0].wait_threshold

        def spec_factory(spec: str) -> Callable[[], ReschedulingPolicy]:
            def factory() -> ReschedulingPolicy:
                return policy_from_spec(
                    spec, defaults={"wait_threshold": wait_threshold}
                )

            factory.__name__ = canonical_spec(spec)
            return factory

        return [
            spec_factory(entry) if isinstance(entry, str) else entry
            for entry in policies
        ]

    def _resolve_backend(
        self, backend: Optional[str]
    ) -> Tuple[Optional[int], Optional[str]]:
        """Split a backend spec into (local worker count, fabric spec)."""
        if backend is None:
            return self._n_workers, None
        kind, _, arg = backend.partition(":")
        kind = kind.strip().lower()
        if kind == "serial":
            if arg:
                raise ConfigurationError(
                    f"backend 'serial' takes no argument, got {backend!r}"
                )
            return 1, None
        if kind == "local":
            try:
                return (int(arg) if arg else self._n_workers), None
            except ValueError:
                raise ConfigurationError(
                    f"bad worker count in backend spec {backend!r}"
                ) from None
        # anything else is a fabric backend spec, validated at dispatch
        return None, backend

    def _execute_fabric(self, tasks, spec: str, progress=None) -> List[ExperimentCell]:
        """Dispatch a built grid onto the distributed fabric."""
        # imported here: the fabric package is heavyweight and only
        # needed when a fabric backend is actually requested.
        from ..fabric.backends import backend_from_spec
        from ..fabric.coordinator import run_grid_fabric

        if self._cache is None:
            raise ConfigurationError(
                "fabric backends coordinate through the result cache; "
                "construct the runner with cache_dir=... to use one"
            )
        backend = backend_from_spec(spec)
        report = run_grid_fabric(
            tasks,
            backend,
            self._cache,
            checkpoint=self._checkpoint,
            progress=progress,
            keep_going=self._keep_going,
        )
        self._last_failures = self._last_failures + report.failures
        return [self._to_cell(outcome) for outcome in report.completed]

    def _execute(
        self, tasks, n_workers: int, done: Sequence[ExperimentCell], progress=None
    ):
        """Run tasks via the shared backend, mapping outcomes to cells."""
        try:
            grid = run_grid_parallel(
                tasks,
                n_workers=n_workers,
                cache=self._cache,
                checkpoint=self._checkpoint,
                cell_timeout=self._cell_timeout,
                max_attempts=self._max_attempts,
                retry_backoff=self._retry_backoff,
                keep_going=self._keep_going,
                progress=progress,
            )
        except ExperimentExecutionError as exc:
            raise ExperimentExecutionError(
                exc.scenario_name,
                exc.policy_name,
                exc.scheduler_name,
                exc.__cause__ or exc,
                completed_cells=tuple(done)
                + tuple(self._to_cell(o) for o in exc.completed_cells),
            ) from exc.__cause__
        self._last_failures = self._last_failures + grid.failures
        return [self._to_cell(outcome) for outcome in grid.completed]

    def _to_cell(self, outcome) -> ExperimentCell:
        return ExperimentCell(
            scenario_name=outcome.scenario_name,
            policy_name=outcome.policy_name,
            scheduler_name=outcome.scheduler_name,
            summary=outcome.summary,
            result=outcome.result if self._keep_results else None,
            wall_seconds=outcome.wall_seconds,
            from_cache=outcome.from_cache,
            seed=outcome.seed,
            from_checkpoint=outcome.from_checkpoint,
            provenance=getattr(outcome, "provenance", "computed"),
            policy_spec=getattr(outcome, "policy_spec", None),
        )

    @staticmethod
    def by_scenario(cells: Sequence[ExperimentCell]) -> Dict[str, List[ExperimentCell]]:
        """Group cells by scenario name, preserving order."""
        grouped: Dict[str, List[ExperimentCell]] = {}
        for cell in cells:
            grouped.setdefault(cell.scenario_name, []).append(cell)
        return grouped
