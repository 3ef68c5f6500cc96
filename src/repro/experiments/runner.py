"""A grid runner for custom experiment matrices.

The table/figure functions cover the paper; :class:`ExperimentRunner`
is for users who want their own (scenario x policy x scheduler) grids
with consistent configuration and labelled results.  The runner is the
thin policy-facing layer over the shared grid driver
(:func:`repro.fabric.coordinator.run_grid_fabric`): it supports
parallel execution on a supervised worker fleet (``n_workers``),
content-addressed on-disk result caching (``cache_dir`` /
:mod:`repro.experiments.cache`), and per-cell derived seeds, so a
grid's results are bit-identical whether it runs serially, in
parallel, or from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.policy import ReschedulingPolicy
from ..errors import ConfigurationError, ExperimentExecutionError
from ..policies import canonical_spec, policy_from_spec
from ..metrics.summary import PerformanceSummary
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..simulator.results import SimulationResult
from ..workload.scenarios import Scenario
from .cache import CacheStats, ResultCache, open_cache
from .parallel import CellFailure, make_cell_task

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
        provenance: where the result came from — one of the
            ``PROVENANCE_*`` constants in
            :mod:`repro.experiments.parallel` (``computed``,
            ``cache_hit`` or ``claimed_elsewhere``).
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
            serially in-process, more runs the grid on a supervised
            fleet of up to ``n_workers`` workers (the ``local:N``
            backend).  Parallel results are bit-identical to serial
            ones.  Cells whose policy cannot be pickled fall back to
            serial execution automatically.
        cache_dir: directory for the content-addressed result cache;
            defaults to ``$REPRO_CACHE_DIR`` when set.  ``None`` (and no
            environment override) disables caching.
        use_cache: force caching on/off regardless of ``cache_dir``
            resolution; ``use_cache=False`` never touches the disk.
        progress: optional callable invoked with each completed
            :class:`~repro.experiments.parallel.CellOutcome` (cache
            hits included) as the grid executes — e.g. a
            :class:`~repro.telemetry.ProgressReporter` heartbeat.
        keep_going: do not raise on cell failures — return the
            completed cells and expose the structured failures via
            :attr:`last_failures`.

    A grid resumes by running again over the same cache directory: the
    cells an interrupted run published are served from the cache.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        keep_results: bool = False,
        n_workers: int = 1,
        cache_dir: Optional[object] = None,
        use_cache: Optional[bool] = None,
        progress: Optional[Callable] = None,
        keep_going: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self._config = config or SimulationConfig(strict=False)
        self._keep_results = keep_results
        self._n_workers = n_workers
        self._cache = open_cache(cache_dir, use_cache)
        self._progress = progress
        self._keep_going = keep_going
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

        The one grid entry point: serial, local-fleet and distributed
        execution all route through here, selected by ``backend``.
        Results are bit-identical across backends — the per-cell seed
        derives from the cell's identity, never from how or where it
        ran.

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
                  (serial for 1, else ``local:n_workers``);
                * ``"serial"``: force in-process serial execution;
                * ``"local"`` / ``"local:N"``: the runner's
                  ``n_workers`` / ``N`` local workers (serial for 1,
                  else a supervised fleet);
                * ``"subprocess:N"`` / ``"supervised:MIN-MAX"``: the
                  other fabric backends (see
                  :func:`~repro.fabric.backends.backend_from_spec`).

                Fleets coordinate through the runner's result cache,
                or a temporary one when caching is off.

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
            ConfigurationError: for an empty grid or a bad ``serial``
                spec.
            ReproError: for an unknown ``backend`` spec.
        """
        self._last_failures = ()
        if not scenarios:
            raise ConfigurationError("run needs at least one scenario")
        if not policies:
            raise ConfigurationError("run needs at least one policy")
        policy_factories = self._policy_factories(scenarios, policies)
        scheduler_factories = scheduler_factories or [RoundRobinScheduler]
        fleet = self._resolve_backend(backend)

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

        serial = fleet is None
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
                            self._execute([task], None, done=cells, progress=notify)
                        )
                    else:
                        tasks.append(task)
        if tasks:
            cells.extend(self._execute(tasks, fleet, done=cells, progress=notify))
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

    def _resolve_backend(self, backend: Optional[str]):
        """The fleet backend a spec selects; ``None`` runs serially."""
        # imported here: the fabric package imports this one.
        from ..fabric.backends import backend_from_spec

        if backend is None or backend.strip().lower() == "local":
            return backend_from_spec(f"local:{self._n_workers}")
        kind, _, arg = backend.partition(":")
        if kind.strip().lower() == "serial":
            if arg:
                raise ConfigurationError(
                    f"backend 'serial' takes no argument, got {backend!r}"
                )
            return None
        return backend_from_spec(backend)

    def _execute(
        self, tasks, fleet, done: Sequence[ExperimentCell], progress=None
    ) -> List[ExperimentCell]:
        """Run tasks via the grid driver, mapping outcomes to cells."""
        from ..fabric.coordinator import run_grid_fabric

        try:
            grid = run_grid_fabric(
                tasks,
                fleet,
                self._cache,
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
            provenance=outcome.provenance,
            policy_spec=outcome.policy_spec,
        )
