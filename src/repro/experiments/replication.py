"""Multi-seed replication of the paper experiments.

The paper evaluates a single trace realisation (the one busy week its
operators selected).  A synthetic reproduction can do better: rerun the
same experiment across independently generated workloads and report the
mean and a confidence interval for every metric, separating the
strategies' real effects from workload noise.  This is how the
benchmark assertions' robustness was established.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.policy import ReschedulingPolicy
from ..errors import ConfigurationError
from ..metrics.summary import PerformanceSummary, summarize
from ..schedulers.initial import InitialScheduler, RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..simulator.simulation import run_simulation
from ..workload.scenarios import Scenario, busy_week
from . import presets

__all__ = ["MetricEstimate", "ReplicatedComparison", "replicate"]

#: two-sided 95% t critical values for small sample sizes (df -> t).
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
}


def _t_critical(df: int) -> float:
    if df <= 0:
        return float("inf")
    return _T_95.get(df, 1.96)


@dataclass(frozen=True)
class MetricEstimate:
    """Mean and 95% confidence half-width of one metric across seeds.

    Attributes:
        mean: sample mean.
        half_width: 95% CI half width (t-distribution, small samples).
        samples: the per-seed values.
    """

    mean: float
    half_width: float
    samples: Tuple[float, ...]

    @property
    def low(self) -> float:
        """Lower bound of the 95% interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the 95% interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.half_width:.1f}"


def _estimate(values: Sequence[float]) -> MetricEstimate:
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return MetricEstimate(mean=mean, half_width=0.0, samples=tuple(values))
    variance = sum((v - mean) ** 2 for v in values) / (count - 1)
    half = _t_critical(count - 1) * math.sqrt(variance / count)
    return MetricEstimate(mean=mean, half_width=half, samples=tuple(values))


#: metric name -> extractor over PerformanceSummary.
_METRICS: Dict[str, Callable[[PerformanceSummary], Optional[float]]] = {
    "suspend_rate_pct": lambda s: s.suspend_rate * 100.0,
    "avg_ct_suspended": lambda s: s.avg_ct_suspended,
    "avg_ct_all": lambda s: s.avg_ct_all,
    "avg_st": lambda s: s.avg_st,
    "avg_wct": lambda s: s.avg_wct,
}


@dataclass(frozen=True)
class ReplicatedComparison:
    """Per-strategy metric estimates across seeds.

    Attributes:
        seeds: the workload seeds replicated over.
        estimates: strategy name -> metric name -> estimate.
    """

    seeds: Tuple[int, ...]
    estimates: Dict[str, Dict[str, MetricEstimate]]

    def strategy_names(self) -> List[str]:
        """The strategies, in run order."""
        return list(self.estimates)

    def render(self) -> str:
        """A table of mean ± CI per strategy and metric."""
        metrics = list(_METRICS)
        header = f"{'Strategy':<18}" + "".join(f"{m:>22}" for m in metrics)
        lines = [f"replicated over seeds {list(self.seeds)}", header, "-" * len(header)]
        for strategy, by_metric in self.estimates.items():
            cells = []
            for metric in metrics:
                estimate = by_metric.get(metric)
                cells.append(f"{str(estimate) if estimate else '-':>22}")
            lines.append(f"{strategy:<18}" + "".join(cells))
        return "\n".join(lines)


def replicate(
    policy_factories: Sequence[Callable[[], ReschedulingPolicy]],
    scenario_factory: Callable[[float, int], Scenario] = busy_week,
    seeds: Sequence[int] = (2010, 2011, 2012, 2013, 2014),
    scale: Optional[float] = None,
    scheduler_factory: Callable[[], InitialScheduler] = RoundRobinScheduler,
    config: Optional[SimulationConfig] = None,
) -> ReplicatedComparison:
    """Run each policy on an independent workload per seed.

    Args:
        policy_factories: builders for the strategies (fresh per run).
        scenario_factory: ``(scale, seed) -> Scenario``; defaults to the
            busy week.
        seeds: workload seeds; each produces an independent trace and
            cluster realisation.
        scale: cluster scale (defaults to the experiment preset).
        scheduler_factory: fresh initial scheduler per run.
        config: simulation config shared across runs.
    """
    if not policy_factories:
        raise ConfigurationError("replicate needs at least one policy factory")
    if not seeds:
        raise ConfigurationError("replicate needs at least one seed")
    resolved_scale = presets.table_scale(scale)
    run_config = config or SimulationConfig(strict=False, record_samples=False)

    per_strategy: Dict[str, Dict[str, List[float]]] = {}
    order: List[str] = []
    for seed in seeds:
        scenario = scenario_factory(resolved_scale, seed)
        for factory in policy_factories:
            policy = factory()
            result = run_simulation(
                scenario.trace,
                scenario.cluster,
                policy=policy,
                initial_scheduler=scheduler_factory(),
                config=run_config,
            )
            summary = summarize(result)
            if policy.name not in per_strategy:
                per_strategy[policy.name] = {m: [] for m in _METRICS}
                order.append(policy.name)
            for metric, extract in _METRICS.items():
                value = extract(summary)
                if value is not None:
                    per_strategy[policy.name][metric].append(value)

    estimates: Dict[str, Dict[str, MetricEstimate]] = {}
    for strategy in order:
        estimates[strategy] = {
            metric: _estimate(values)
            for metric, values in per_strategy[strategy].items()
            if values
        }
    return ReplicatedComparison(seeds=tuple(seeds), estimates=estimates)
