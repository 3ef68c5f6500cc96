"""The paper's Figures 2-4, one :class:`~.experiment.Experiment` each.

:data:`FIGURES` holds each figure's definition — scenario, strategies
and the analysis its ``finish`` step runs over the full simulation
results — and :mod:`repro.validation` merges it into ``EXPERIMENTS``.
``figureN()`` runs its entry and returns the analysis object, which
renders as plain text, so the benchmark harness can print the same
series the paper plots.  (The figures are data products — no plotting
dependency is needed to compare shapes.)

Like the tables, every figure accepts ``workers`` / ``cache_dir`` /
``use_cache`` (defaulting to ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE``) and runs through the shared grid driver, so
long-horizon figure runs are memoized on disk and Figure 3's three
simulations can run in parallel.  Figure caching stores the full
simulation result (records *and* samples): the first run of a given
configuration pays the simulation, later ones only unpickle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..analysis.suspension import SuspensionAnalysis, analyze_suspension, suspension_time_cdf
from ..analysis.utilization import UtilizationAnalysis, analyze_utilization
from ..analysis.waste import WasteFigure, waste_decomposition
from ..core.policies import no_res, res_sus_rand, res_sus_util
from ..metrics.report import render_waste_components
from ..workload.scenarios import busy_week, year
from .experiment import Experiment

__all__ = [
    "FIGURES",
    "Figure2",
    "Figure4",
    "figure2",
    "figure3",
    "figure4",
]


@dataclass(frozen=True)
class Figure2:
    """Figure 2's data: the suspension-time CDF and headline stats."""

    analysis: SuspensionAnalysis
    cdf_points: Tuple[Tuple[float, float], ...]

    def render(self) -> str:
        """Plain-text rendering: stats then a 20-point CDF table."""
        lines = ["Figure 2: CDF of job suspension time (minutes)"]
        for label, value in self.analysis.rows():
            lines.append(f"  {label:<28} {value:>10.1f}")
        lines.append(f"  {'CDF(minutes -> fraction)':<28}")
        for value, fraction in self.cdf_points:
            lines.append(f"    {value:>10.1f} -> {fraction:>6.3f}")
        return "\n".join(lines)


def render_figure3(figure: WasteFigure) -> str:
    """Plain-text rendering of Figure 3 (stacked-bar values)."""
    return render_waste_components(
        figure.summaries, "Figure 3: average wasted completion time components"
    )


@dataclass(frozen=True)
class Figure4:
    """Figure 4's data: windowed utilization and suspension series."""

    analysis: UtilizationAnalysis

    def render(self, max_rows: int = 40) -> str:
        """Plain-text rendering: headline stats plus a down-sampled series."""
        a = self.analysis
        lines = [
            "Figure 4: suspension and utilization over the horizon",
            f"  mean utilization            {a.mean_utilization_pct:>8.1f}%",
            f"  p10..p90 utilization        {a.p10_utilization_pct:>8.1f}%"
            f" .. {a.p90_utilization_pct:.1f}%",
            f"  peak suspended jobs         {a.peak_suspended_jobs:>8.1f}",
            f"  suspension while <60% util  {a.suspension_while_underutilized * 100:>8.1f}%",
            f"  {'window_start':>14} {'util%':>7} {'suspended':>10}",
        ]
        points = a.points
        step = max(1, len(points) // max_rows)
        for point in points[::step]:
            lines.append(
                f"  {point.window_start:>14.0f} {point.utilization * 100:>7.1f} "
                f"{point.suspended_jobs:>10.1f}"
            )
        return "\n".join(lines)


def _figure2(outcomes, tasks) -> Figure2:
    """Figure 2's finish: the NoRes run's suspension statistics and CDF."""
    result = outcomes[0].result
    cdf = suspension_time_cdf(result)
    return Figure2(analysis=analyze_suspension(result), cdf_points=tuple(cdf.points(count=20)))


def _figure3(outcomes, tasks) -> WasteFigure:
    """Figure 3's finish: each strategy's waste split into its components."""
    return waste_decomposition([outcome.result for outcome in outcomes])


def _figure4(outcomes, tasks, window_minutes: float = 100.0) -> Figure4:
    """Figure 4's finish: windowed utilization, clipped to the submission horizon.

    The paper's year-long window is a continuously-fed system, while
    our simulator runs on past the horizon until the last straggler
    completes.
    """
    horizon = dict(tasks[0].scenario.args)["horizon"]
    return Figure4(analysis=analyze_utilization(outcomes[0].result, window_minutes, up_to_minute=horizon))


#: Figure key -> its experiment, in the paper's order.
FIGURES: Dict[str, Experiment] = {
    "figure2": Experiment(
        "Figure 2: CDF of job suspension time",
        year, (no_res,), _figure2, keep_results=True, render_figure=Figure2.render,
    ),
    "figure3": Experiment(
        "Figure 3: average wasted completion time components",
        busy_week, (no_res, res_sus_util, res_sus_rand), _figure3,
        keep_results=True, render_figure=render_figure3,
    ),
    "figure4": Experiment(
        "Figure 4: suspension and utilization over the horizon",
        year, (no_res,), _figure4, keep_results=True, render_figure=Figure4.render,
    ),
}


def figure2(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
    workers: Optional[int] = None,
    cache_dir=None,
    use_cache: Optional[bool] = None,
    progress: Optional[Callable] = None,
) -> Figure2:
    """Figure 2: suspension-time CDF from a long-horizon NoRes run."""
    return FIGURES["figure2"].run(scale, seed, horizon, None, None, workers, cache_dir, use_cache, progress)


def figure3(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    cache_dir=None,
    use_cache: Optional[bool] = None,
    progress: Optional[Callable] = None,
) -> WasteFigure:
    """Figure 3: waste decomposition under normal load (busy week, RR).

    Three bars — NoRes, ResSusUtil, ResSusRand — each split into wait,
    suspend, and rescheduling waste.
    """
    return FIGURES["figure3"].run(scale, seed, None, None, None, workers, cache_dir, use_cache, progress)


def figure4(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
    window_minutes: float = 100.0,
    workers: Optional[int] = None,
    cache_dir=None,
    use_cache: Optional[bool] = None,
    progress: Optional[Callable] = None,
) -> Figure4:
    """Figure 4: utilization & suspension over a long-horizon NoRes run."""
    experiment = replace(FIGURES["figure4"], finish=partial(_figure4, window_minutes=window_minutes))
    return experiment.run(scale, seed, horizon, None, None, workers, cache_dir, use_cache, progress)
