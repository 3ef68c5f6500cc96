"""The paper's Section 2 motivation, measured: one :class:`~.experiment.Experiment` each.

* ``pool-imbalance`` — Section 2.3's third observation: bursts are
  confined to specific pools, so "those pools are quickly overwhelmed
  ... during the same time period, other pools may be barely utilized".
  Per-pool utilization, saturation episodes and the share of time some
  pool is saturated while the cluster sits under 60%, on the busy week
  under NoRes (Figure 3's NoRes cell).
* ``task-level`` — Section 2.2: "100% or a high percentage of jobs
  associated with a particular task needs to complete before the task
  result ... can be useful".  Task completion (the max over member
  jobs) under NoRes and ResSusWaitUtil on the high-load week (Table
  4's cells).

:data:`MOTIVATION` holds both; :mod:`repro.validation` merges it into
``EXTENSIONS``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.pools import PoolUsageAnalysis, analyze_pools
from ..analysis.tasks import TaskAnalysis, analyze_tasks
from ..core.policies import no_res, res_sus_wait_util
from ..metrics.summary import PerformanceSummary
from ..workload.scenarios import ScenarioBuilds, busy_week, high_load
from .experiment import Experiment

__all__ = ["MOTIVATION"]

_POOLS_TITLE = "Per-pool imbalance during the busy week (NoRes)"
_TASKS_TITLE = "Task-level completion (Section 2.2 motivation)"


def _pool_usage(outcomes, tasks) -> PoolUsageAnalysis:
    """Per-pool usage of the NoRes run, up to the last submission."""
    scenario = ScenarioBuilds().get(tasks[0].scenario)
    return analyze_pools(
        outcomes[0].result,
        pool_cores=[p.total_cores for p in scenario.cluster],
        up_to_minute=scenario.trace.horizon(),
    )


def _render_pool_usage(analysis: PoolUsageAnalysis) -> str:
    hot = analysis.hottest()
    cold = analysis.coldest()
    lines = [
        _POOLS_TITLE,
        f"hottest pool: {hot.pool_id} mean {hot.mean_utilization * 100:.0f}% "
        f"(saturated {hot.saturated_fraction * 100:.0f}% of the time)",
        f"coldest pool: {cold.pool_id} mean {cold.mean_utilization * 100:.0f}%",
        f"mean hot-cold spread: {analysis.mean_spread * 100:.0f} points",
        f"saturation episodes >=30 min: {len(analysis.episodes)}",
        f"some pool saturated while cluster <60% busy: "
        f"{analysis.hot_while_idle_fraction * 100:.0f}% of samples",
    ]
    for episode in analysis.episodes[:6]:
        lines.append(
            f"  {episode.pool_id}: {episode.start_minute:.0f}-"
            f"{episode.end_minute:.0f} min "
            f"(cluster at {episode.cluster_utilization_during * 100:.0f}%)"
        )
    return "\n".join(lines)


TaskLevel = Dict[str, Tuple[PerformanceSummary, TaskAnalysis]]


def _task_level(outcomes, tasks) -> TaskLevel:
    """Each strategy's summary and task analysis, by policy name."""
    return {o.policy_name: (o.summary, analyze_tasks(o.result)) for o in outcomes}


def _render_task_level(out: TaskLevel) -> str:
    header = (
        f"{'Strategy':<16} {'tasks':>6} {'task CT':>9} {'member CT':>10} "
        f"{'amplif.':>8} {'gated by susp.':>15}"
    )
    lines = [_TASKS_TITLE, header, "-" * len(header)]
    for name, (summary, analysis) in out.items():
        lines.append(
            f"{name:<16} {len(analysis):>6} {analysis.avg_task_completion:>9.1f} "
            f"{analysis.avg_member_job_completion:>10.1f} {analysis.amplification:>8.2f} "
            f"{analysis.tasks_delayed_by_suspension * 100:>14.1f}%"
        )
    base_summary, base_tasks = out["NoRes"]
    res_summary, res_tasks = out["ResSusWaitUtil"]
    task_gain = 1 - res_tasks.avg_task_completion / base_tasks.avg_task_completion
    job_gain = 1 - res_summary.avg_ct_all / base_summary.avg_ct_all
    lines.append(
        f"\ntask-level completion gain {task_gain * 100:+.1f}% vs "
        f"job-level gain {job_gain * 100:+.1f}%"
    )
    return "\n".join(lines)


#: Experiment key -> its experiment.
MOTIVATION: Dict[str, Experiment] = {
    "pool-imbalance": Experiment(
        _POOLS_TITLE, busy_week, (no_res,), _pool_usage,
        keep_results=True, render_figure=_render_pool_usage,
    ),
    "task-level": Experiment(
        _TASKS_TITLE, high_load, (no_res, res_sus_wait_util), _task_level,
        keep_results=True, render_figure=_render_task_level,
    ),
}
