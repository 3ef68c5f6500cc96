"""The paper's experiments as data.

An :class:`Experiment` is one of the paper's tables or figures: the
scenario it simulates, its strategies and initial scheduler, and the
``finish`` step that turns its cells' outcomes into the table or the
figure.  The entries live in :mod:`.tables` and :mod:`.figures`;
:func:`repro.validation.run_experiments` runs any set of them as one
grid, in which a cell two experiments share is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..metrics.report import render_table
from ..policies import policy_from_spec
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..workload.scenarios import ScenarioRecipe, year
from . import presets
from .cache import open_cache
from .parallel import CellOutcome, CellTask, execute_cells, make_cell_task

__all__ = ["Experiment", "execute_grid"]


def execute_grid(
    tasks: Sequence[CellTask], workers=None, cache_dir=None, use_cache=None, progress=None
) -> List[CellOutcome]:
    """:func:`execute_cells` with ``workers``/``cache_dir``/``use_cache``
    defaulting to ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``."""
    return execute_cells(tasks, presets.workers(workers), open_cache(cache_dir, use_cache), progress)


@dataclass(frozen=True)
class Experiment:
    """One of the paper's tables or figures.

    Attributes:
        title: its heading.
        scenario: the scenario builder, ``(scale, seed) -> Scenario``
            (:func:`~repro.workload.scenarios.year` also takes the
            horizon); one that a
            :class:`~repro.workload.scenarios.ScenarioRecipe` can name.
        policies: the default strategies, baseline first: zero-arg
            factories or registry spec strings.
        finish: ``(outcomes, horizon) -> result``, over the cells'
            outcomes in strategy order and the horizon :meth:`run` got.
        scheduler: builds each cell's initial scheduler.
        keep_results: whether the cells keep their full simulation results.
        render_figure: a figure's own text rendering (which carries its
            heading); ``None`` for a table, rendered in the paper's
            table layout under ``title``.
    """

    title: str
    scenario: Callable[..., Any]
    policies: Sequence[Any]
    finish: Callable[[Sequence[CellOutcome], Optional[float]], Any]
    scheduler: Callable[[], InitialScheduler] = RoundRobinScheduler
    keep_results: bool = False
    render_figure: Optional[Callable[[Any], str]] = None

    @property
    def is_table(self) -> bool:
        """Listed by ``repro table``."""
        return self.render_figure is None

    def tasks(self, scale=None, seed=None, horizon=None, policies=None, config=None) -> List[CellTask]:
        """One cell per strategy, indexed from 0, carrying the scenario's recipe.

        ``None`` takes the presets: ``REPRO_SCALE`` (``REPRO_YEAR_SCALE``
        for a year-long scenario), ``REPRO_SEED`` and, for a year-long
        scenario only, ``REPRO_YEAR_HORIZON``.  ``policies`` replaces
        the strategies; a spec string resolves with the scenario's
        ``wait_threshold`` as the default.
        """
        if self.scenario is year:
            args = (presets.year_scale(scale), presets.seed(seed), presets.year_horizon(horizon))
        else:
            args = (presets.table_scale(scale), presets.seed(seed))
        scenario = ScenarioRecipe.of(self.scenario, *args)
        config = config or SimulationConfig(strict=False)
        defaults = {"wait_threshold": scenario.wait_threshold}
        return [
            make_cell_task(
                index,
                scenario,
                policy_from_spec(entry, defaults=defaults) if isinstance(entry, str) else entry(),
                self.scheduler(),
                config,
                keep_result=self.keep_results,
            )
            for index, entry in enumerate(policies or self.policies)
        ]

    def run(
        self, scale=None, seed=None, horizon=None, policies=None, config=None,
        workers=None, cache_dir=None, use_cache=None, progress=None,
    ) -> Any:
        """Run the experiment's cells as one grid (see :func:`execute_grid`) and finish them."""
        tasks = self.tasks(scale, seed, horizon, policies, config)
        return self.finish(execute_grid(tasks, workers, cache_dir, use_cache, progress), horizon)

    def render(self, result: Any) -> str:
        """The experiment's text rendering of ``result``."""
        if self.is_table:
            return render_table(list(result.summaries), self.title)
        return self.render_figure(result)
