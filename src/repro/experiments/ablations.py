"""Ablation experiments beyond the paper's tables, one :class:`~.experiment.Experiment` each.

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

:data:`ABLATIONS` holds the entries, all on the high-load scenario with
the round-robin initial scheduler, and :mod:`repro.validation` merges
them into ``EXTENSIONS``; each function above runs its entry, with its
arguments as the entry's strategies.  The NoRes and ResSusUtil cells
are Table 2's, so one grid simulates them once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.comparison import StrategyComparison
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
from ..metrics.summary import PerformanceSummary
from ..workload.scenarios import high_load
from .experiment import Experiment, strategy_comparison

__all__ = [
    "ABLATIONS",
    "selector_ablation",
    "threshold_sweep",
    "overhead_sweep",
    "duplication_ablation",
    "migration_ablation",
    "SELECTOR_FAMILY",
]

#: The selector family, by the name its row carries.
_SELECTORS = (
    ("util", LowestUtilizationSelector),
    ("random", RandomSelector),
    ("queue", ShortestQueueSelector),
    ("weighted", WeightedSelector),
    ("predicted", PredictedWaitSelector),
)


def SELECTOR_FAMILY() -> list[Tuple[str, PoolSelector]]:
    """The named selector family :func:`selector_ablation` compares, one fresh instance each."""
    return [(name, selector()) for name, selector in _SELECTORS]


def _policy(policy, selector, *args, name: str):
    """A zero-arg factory of ``policy(selector(), *args, name=name)``."""
    return lambda: policy(selector(), *args, name=name)


def _selectors(wait_threshold: float) -> Tuple:
    return (NoRescheduling,) + tuple(
        _policy(RescheduleSuspendedAndWaiting, selector, wait_threshold, name=f"ResSusWait[{name}]")
        for name, selector in _SELECTORS
    )


def _thresholds(thresholds: Tuple[float, ...]) -> Tuple:
    return (NoRescheduling,) + tuple(
        _policy(RescheduleSuspendedAndWaiting, LowestUtilizationSelector, threshold,
                name=f"ResSusWaitUtil[{threshold:g}m]")
        for threshold in thresholds
    )


def _restart_costs(scenario, fixed_minutes):
    """ResSusUtil once per fixed restart overhead."""
    return [
        (
            _policy(RescheduleSuspended, LowestUtilizationSelector, name=f"ResSusUtil[+{fixed:g}m]"),
            "",
            {"restart_overhead": RestartOverhead(fixed_minutes=fixed)},
        )
        for fixed in fixed_minutes
    ]


def _dilations(scenario, dilations):
    """MigSusUtil once per virtualisation dilation."""
    return [
        (
            _policy(MigrateSuspended, LowestUtilizationSelector, name=f"MigSusUtil[{dilation * 100:g}%]"),
            "",
            {"migration_dilation": dilation},
        )
        for dilation in dilations
    ]


#: Ablation key -> its experiment.
ABLATIONS: Dict[str, Experiment] = {
    "selectors": Experiment(
        "Ablation: alternate-pool selectors (high load, RR initial)",
        high_load, _selectors(30.0), strategy_comparison,
    ),
    "threshold": Experiment(
        "Ablation: waiting-time threshold sweep (high load, RR initial)",
        high_load, _thresholds((10.0, 30.0, 60.0, 120.0, 480.0)), strategy_comparison,
    ),
    "overhead": Experiment(
        "Ablation: restart overhead sweep (ResSusUtil, high load)",
        high_load, (0.0, 15.0, 60.0, 240.0), strategy_comparison, strategies=_restart_costs,
    ),
    "duplication": Experiment(
        "Ablation: restart vs duplication (high load, RR initial)",
        high_load,
        (
            NoRescheduling,
            _policy(RescheduleSuspended, LowestUtilizationSelector, name="ResSusUtil"),
            _policy(DuplicateSuspended, LowestUtilizationSelector, name="DupSusUtil"),
            _policy(MigrateSuspended, LowestUtilizationSelector, name="MigSusUtil"),
        ),
        strategy_comparison,
    ),
    "migration": Experiment(
        "Ablation: migration dilation sweep (MigSusUtil, high load)",
        high_load, (0.0, 0.15, 0.30), strategy_comparison, strategies=_dilations,
    ),
}


def selector_ablation(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    wait_threshold: float = 30.0,
) -> StrategyComparison:
    """Combined rescheduling with every selector, NoRes baseline first."""
    return ABLATIONS["selectors"].run(scale, seed, policies=_selectors(wait_threshold))


def threshold_sweep(
    thresholds: Tuple[float, ...] = (10.0, 30.0, 60.0, 120.0, 480.0),
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> StrategyComparison:
    """ResSusWaitUtil across waiting thresholds, NoRes baseline first."""
    return ABLATIONS["threshold"].run(scale, seed, policies=_thresholds(thresholds))


def overhead_sweep(
    fixed_minutes: Tuple[float, ...] = (0.0, 15.0, 60.0, 240.0),
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[float, PerformanceSummary]:
    """ResSusUtil under increasing restart overheads.

    Returns a map from fixed overhead minutes to the run's summary; the
    0.0 entry is the paper's free-restart assumption.
    """
    comparison = ABLATIONS["overhead"].run(scale, seed, policies=fixed_minutes)
    return dict(zip(fixed_minutes, comparison.summaries))


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
    comparison = ABLATIONS["migration"].run(scale, seed, policies=dilations)
    return dict(zip(dilations, comparison.summaries))


def duplication_ablation(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> StrategyComparison:
    """NoRes vs restart-based vs duplication-based suspended rescheduling."""
    return ABLATIONS["duplication"].run(scale, seed)
