"""Experiments as data.

An :class:`Experiment` is one of the paper's tables or figures, or one
of the experiments this repository runs beyond them: the scenario it
simulates, its strategies and initial scheduler, and the ``finish``
step that turns its cells' outcomes into the table or the figure.  The
paper's entries live in :mod:`.tables` and :mod:`.figures`, the others
in :mod:`.ablations`, :mod:`.fault_sweep`, :mod:`.motivation` and
:mod:`repro.sites.experiments`; :func:`repro.validation.run_experiments`
runs any set of them as one grid, in which a cell two experiments share
is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.comparison import StrategyComparison
from ..metrics.report import render_table
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..workload.scenarios import ScenarioRecipe, year
from . import presets
from .cache import open_cache
from .parallel import CellOutcome, CellTask, execute_cells, make_cell_task

__all__ = ["Experiment", "execute_grid", "strategy_comparison"]

#: One cell's strategy: its policy entry (a zero-arg factory or a
#: registry spec string), its cell-id variant and its config changes.
Strategy = Tuple[Any, str, Mapping[str, Any]]


def execute_grid(
    tasks: Sequence[CellTask], workers=None, cache_dir=None, use_cache=None, progress=None
) -> List[CellOutcome]:
    """:func:`execute_cells` with ``workers``/``cache_dir``/``use_cache``
    defaulting to ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``."""
    return execute_cells(tasks, presets.workers(workers), open_cache(cache_dir, use_cache), progress)


def strategy_comparison(outcomes: Sequence[CellOutcome], tasks=None) -> StrategyComparison:
    """A table's finish: the strategies' summaries, baseline first."""
    return StrategyComparison(outcomes[0].scenario_name, tuple(o.summary for o in outcomes), tuple(outcomes))


@dataclass(frozen=True)
class Experiment:
    """One table, figure or sweep, run as one grid of cells.

    Attributes:
        title: its heading.
        scenario: the scenario builder, ``(scale, seed) -> Scenario``
            (:func:`~repro.workload.scenarios.year` also takes the
            horizon).  The cells carry the
            :class:`~repro.workload.scenarios.ScenarioRecipe` of a
            builder a recipe can name; any other builder is called with
            the raw ``scale`` and ``seed`` (``None`` for its own
            defaults) and its scenario is built with the cells.
        policies: the default strategies, baseline first: zero-arg
            factories or registry spec strings (or what ``strategies``
            expands).
        finish: ``(outcomes, tasks) -> result``, over the cells'
            outcomes and the cells themselves, in strategy order.
        scheduler: builds each cell's initial scheduler.
        keep_results: whether the cells keep their full simulation results.
        render_figure: a figure's own text rendering (which carries its
            heading); ``None`` for a table, rendered in the paper's
            table layout under ``title``.
        strategies: ``(scenario, policies) -> [(policy, variant, config
            changes)]``, one per cell, for an experiment whose cells
            differ by more than their policy; ``None`` runs each policy
            as is.
    """

    title: str
    scenario: Callable[..., Any]
    policies: Sequence[Any]
    finish: Callable[[Sequence[CellOutcome], Sequence[CellTask]], Any]
    scheduler: Callable[[], InitialScheduler] = RoundRobinScheduler
    keep_results: bool = False
    render_figure: Optional[Callable[[Any], str]] = None
    strategies: Optional[Callable[[Any, Sequence[Any]], Iterable[Strategy]]] = None

    @property
    def is_table(self) -> bool:
        """Rendered as a table of its strategies' summaries."""
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
            scenario = ScenarioRecipe.of(year, *args)
        elif ScenarioRecipe.can_name(self.scenario):
            scenario = ScenarioRecipe.of(self.scenario, presets.table_scale(scale), presets.seed(seed))
        else:
            scenario = self.scenario(scale, seed)
        config = config or SimulationConfig(strict=False)
        entries = policies or self.policies
        strategies = self.strategies(scenario, entries) if self.strategies else [(e, "", {}) for e in entries]
        return [
            make_cell_task(
                index,
                scenario,
                _policy(entry, scenario),
                self.scheduler(),
                replace(config, **changes),
                keep_result=self.keep_results,
                variant=variant,
            )
            for index, (entry, variant, changes) in enumerate(strategies)
        ]

    def run(
        self, scale=None, seed=None, horizon=None, policies=None, config=None,
        workers=None, cache_dir=None, use_cache=None, progress=None,
    ) -> Any:
        """Run the experiment's cells as one grid (see :func:`execute_grid`) and finish them."""
        tasks = self.tasks(scale, seed, horizon, policies, config)
        return self.finish(execute_grid(tasks, workers, cache_dir, use_cache, progress), tasks)

    def render(self, result: Any) -> str:
        """The experiment's text rendering of ``result``."""
        if self.is_table:
            return render_table(list(result.summaries), self.title)
        return self.render_figure(result)


def _policy(entry, scenario):
    """A fresh policy from a zero-arg factory or a registry spec string."""
    if not isinstance(entry, str):
        return entry()
    # Imported here: the registry imports repro.sites, whose experiments import this module.
    from ..policies import policy_from_spec

    return policy_from_spec(entry, defaults={"wait_threshold": scenario.wait_threshold})
