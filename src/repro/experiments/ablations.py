"""Ablation experiments beyond the paper's tables.

These quantify the design choices the paper discusses but does not
evaluate numerically, plus its future-work ideas:

* :func:`selector_ablation` — the full selector family (utilization,
  random, queue length, weighted multi-metric, predicted wait) under
  the combined suspended+waiting policy; realises the future-work idea
  of "multiple metrics ... in combination".
* :func:`threshold_sweep` — sensitivity of the waiting-job policy to
  its threshold (the paper fixes 30 minutes ≈ 2x the average wait).
* :func:`overhead_sweep` — how restart costs ("transferring large
  amount of data and job binaries") erode rescheduling's benefit; the
  paper's planned "network delays and other rescheduling associated
  overheads" simulator improvement.
* :func:`duplication_ablation` — restart-based rescheduling versus the
  future-work job-duplication and checkpoint-migration techniques.
* :func:`migration_ablation` — the Condor/VM-migration alternative the
  paper rejects on overhead grounds (Section 2.3), swept across
  virtualisation penalties so the crossover against restart is visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.comparison import StrategyComparison, compare_strategies
from ..core.overheads import RestartOverhead
from ..core.policies import (
    DuplicateSuspended,
    MigrateSuspended,
    NoRescheduling,
    RescheduleSuspended,
    RescheduleSuspendedAndWaiting,
)
from ..core.selectors import (
    LowestUtilizationSelector,
    PoolSelector,
    PredictedWaitSelector,
    RandomSelector,
    ShortestQueueSelector,
    WeightedSelector,
)
from ..metrics.summary import PerformanceSummary, summarize
from ..schedulers.initial import RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..simulator.simulation import run_simulation
from ..workload.scenarios import Scenario, high_load
from . import presets

__all__ = [
    "selector_ablation",
    "threshold_sweep",
    "overhead_sweep",
    "duplication_ablation",
    "migration_ablation",
    "SELECTOR_FAMILY",
]


def _default_scenario(scale: Optional[float], seed: Optional[int]) -> Scenario:
    return high_load(presets.table_scale(scale), presets.seed(seed))


def SELECTOR_FAMILY() -> List[Tuple[str, PoolSelector]]:
    """The named selector family used by :func:`selector_ablation`."""
    return [
        ("util", LowestUtilizationSelector()),
        ("random", RandomSelector()),
        ("queue", ShortestQueueSelector()),
        ("weighted", WeightedSelector()),
        ("predicted", PredictedWaitSelector()),
    ]


def selector_ablation(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    wait_threshold: float = 30.0,
) -> StrategyComparison:
    """Combined rescheduling with every selector, NoRes baseline first."""
    scenario = _default_scenario(scale, seed)
    policies = [NoRescheduling()]
    for name, selector in SELECTOR_FAMILY():
        policies.append(
            RescheduleSuspendedAndWaiting(
                selector, wait_threshold, name=f"ResSusWait[{name}]"
            )
        )
    return compare_strategies(
        scenario,
        policies,
        scheduler_factory=RoundRobinScheduler,
        config=SimulationConfig(strict=False),
    )


def threshold_sweep(
    thresholds: Tuple[float, ...] = (10.0, 30.0, 60.0, 120.0, 480.0),
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> StrategyComparison:
    """ResSusWaitUtil across waiting thresholds, NoRes baseline first."""
    scenario = _default_scenario(scale, seed)
    policies = [NoRescheduling()]
    for threshold in thresholds:
        policies.append(
            RescheduleSuspendedAndWaiting(
                LowestUtilizationSelector(),
                threshold,
                name=f"ResSusWaitUtil[{threshold:g}m]",
            )
        )
    return compare_strategies(
        scenario,
        policies,
        scheduler_factory=RoundRobinScheduler,
        config=SimulationConfig(strict=False),
    )


def overhead_sweep(
    fixed_minutes: Tuple[float, ...] = (0.0, 15.0, 60.0, 240.0),
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[float, PerformanceSummary]:
    """ResSusUtil under increasing restart overheads.

    Returns a map from fixed overhead minutes to the run's summary; the
    0.0 entry is the paper's free-restart assumption.
    """
    scenario = _default_scenario(scale, seed)
    summaries: Dict[float, PerformanceSummary] = {}
    for fixed in fixed_minutes:
        policy = RescheduleSuspended(
            LowestUtilizationSelector(), name=f"ResSusUtil[+{fixed:g}m]"
        )
        result = run_simulation(
            scenario.trace,
            scenario.cluster,
            policy=policy,
            initial_scheduler=RoundRobinScheduler(),
            config=SimulationConfig(
                strict=False, restart_overhead=RestartOverhead(fixed_minutes=fixed)
            ),
        )
        summaries[fixed] = summarize(result)
    return summaries


def migration_ablation(
    dilations: Tuple[float, ...] = (0.0, 0.15, 0.30),
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[float, PerformanceSummary]:
    """Checkpoint migration under increasing virtualisation overheads.

    The paper rejects VM migration for NetBatch because running chip
    simulations on virtualised hosts costs 10-20% (Section 2.3).  This
    ablation quantifies the trade-off it alludes to: migration keeps a
    suspended job's progress (no restart waste) but dilates all
    remaining work by the given fraction.  The returned map goes from
    dilation fraction to the run's summary; compare against
    :func:`duplication_ablation`'s restart-based rows.
    """
    scenario = _default_scenario(scale, seed)
    summaries: Dict[float, PerformanceSummary] = {}
    for dilation in dilations:
        policy = MigrateSuspended(
            LowestUtilizationSelector(), name=f"MigSusUtil[{dilation * 100:g}%]"
        )
        result = run_simulation(
            scenario.trace,
            scenario.cluster,
            policy=policy,
            initial_scheduler=RoundRobinScheduler(),
            config=SimulationConfig(strict=False, migration_dilation=dilation),
        )
        summaries[dilation] = summarize(result)
    return summaries


def duplication_ablation(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> StrategyComparison:
    """NoRes vs restart-based vs duplication-based suspended rescheduling."""
    scenario = _default_scenario(scale, seed)
    policies = [
        NoRescheduling(),
        RescheduleSuspended(LowestUtilizationSelector(), name="ResSusUtil"),
        DuplicateSuspended(LowestUtilizationSelector(), name="DupSusUtil"),
        MigrateSuspended(LowestUtilizationSelector(), name="MigSusUtil"),
    ]
    return compare_strategies(
        scenario,
        policies,
        scheduler_factory=RoundRobinScheduler,
        config=SimulationConfig(strict=False),
    )
