"""Side-by-side strategy comparison (the engine behind the tables).

:func:`compare_strategies` runs one scenario under a list of
(policy, initial-scheduler) pairs and collects the per-strategy
summaries, plus convenience reduction figures like "AvgCT of suspended
jobs dropped by 50%" that the paper quotes in prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from ..core.policy import ReschedulingPolicy
from ..errors import ConfigurationError
from ..metrics.summary import PerformanceSummary
from ..schedulers.initial import InitialScheduler
from ..simulator.config import SimulationConfig
from ..workload.scenarios import Scenario

__all__ = ["StrategyComparison", "compare_strategies", "reduction_pct"]


def reduction_pct(baseline: Optional[float], value: Optional[float]) -> Optional[float]:
    """Percentage reduction of ``value`` relative to ``baseline``.

    Positive means improvement (value below baseline); ``None`` when
    either input is missing or the baseline is zero.
    """
    if baseline is None or value is None or baseline == 0:
        return None
    return 100.0 * (baseline - value) / baseline


@dataclass(frozen=True)
class StrategyComparison:
    """Summaries for one scenario, first row being the baseline.

    ``cells`` carries the per-strategy execution records
    (:class:`~repro.experiments.parallel.CellOutcome`: wall-clock
    seconds, cache provenance, derived seed) when the comparison came
    from :func:`compare_strategies`; it is empty for hand-built
    instances and never affects equality-relevant table content.
    """

    scenario_name: str
    summaries: Tuple[PerformanceSummary, ...]
    cells: Tuple = field(default=(), compare=False)

    def baseline(self) -> PerformanceSummary:
        """The first strategy's summary (by convention, NoRes)."""
        return self.summaries[0]

    def by_name(self, policy_name: str) -> PerformanceSummary:
        """Summary for a strategy by its policy name."""
        for summary in self.summaries:
            if summary.policy_name == policy_name:
                return summary
        raise ConfigurationError(
            f"no strategy named {policy_name!r} in comparison "
            f"({[s.policy_name for s in self.summaries]})"
        )

    def avg_ct_suspended_reduction(self, policy_name: str) -> Optional[float]:
        """% reduction in AvgCT over suspended jobs vs the baseline."""
        return reduction_pct(
            self.baseline().avg_ct_suspended, self.by_name(policy_name).avg_ct_suspended
        )

    def avg_ct_all_reduction(self, policy_name: str) -> Optional[float]:
        """% reduction in AvgCT over all jobs vs the baseline."""
        return reduction_pct(
            self.baseline().avg_ct_all, self.by_name(policy_name).avg_ct_all
        )

    def avg_wct_reduction(self, policy_name: str) -> Optional[float]:
        """% reduction in AvgWCT vs the baseline."""
        return reduction_pct(self.baseline().avg_wct, self.by_name(policy_name).avg_wct)


def compare_strategies(
    scenario: Scenario,
    policies: Sequence[ReschedulingPolicy],
    scheduler_factory: Optional[Callable[[], InitialScheduler]] = None,
    config: Optional[SimulationConfig] = None,
    n_workers: int = 1,
    cache=None,
    keep_results: bool = False,
    progress: Optional[Callable] = None,
) -> StrategyComparison:
    """Run every policy on the scenario and summarise each run.

    Each (scenario, policy, scheduler) cell gets a child seed derived
    from its identity (spawn-key style), so results are identical for
    serial and parallel execution and for any ``policies`` ordering.

    Args:
        scenario: workload + cluster to evaluate on.
        policies: the strategies, baseline first.
        scheduler_factory: builds a fresh initial scheduler per run
            (fresh, because round-robin keeps cursors); defaults to the
            engine's round-robin.
        config: simulation config shared across runs.
        n_workers: local worker-fleet width; ``1`` runs serially
            in-process.
        cache: optional :class:`~repro.experiments.cache.ResultCache`
            serving previously computed cells.
        keep_results: also keep (and cache) each run's full
            :class:`~repro.simulator.results.SimulationResult`,
            reachable through ``comparison.cells``.
        progress: optional per-cell completion callback (e.g. a
            :class:`~repro.telemetry.ProgressReporter`), forwarded to
            the execution backend.
    """
    # Imported here: repro.analysis must stay importable without pulling
    # the experiments package in at module-import time (and vice versa).
    from ..experiments.parallel import execute_cells, make_cell_task

    if not policies:
        raise ConfigurationError("compare_strategies needs at least one policy")
    resolved_config = config or SimulationConfig(strict=False)
    tasks = [
        make_cell_task(
            index,
            scenario,
            policy,
            scheduler_factory() if scheduler_factory is not None else None,
            resolved_config,
            keep_result=keep_results,
        )
        for index, policy in enumerate(policies)
    ]
    outcomes = execute_cells(
        tasks, n_workers=n_workers, cache=cache, progress=progress
    )
    return StrategyComparison(
        scenario_name=scenario.name,
        summaries=tuple(outcome.summary for outcome in outcomes),
        cells=tuple(outcomes),
    )
