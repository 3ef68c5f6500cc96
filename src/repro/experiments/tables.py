"""The paper's tables (Section 3), one :class:`~.experiment.Experiment` each.

:data:`TABLES` holds each table's definition — scenario, strategies,
initial scheduler — and :mod:`repro.validation` merges it into
``EXPERIMENTS``.  ``tableN()`` runs its entry end to end (scenario
construction, one simulation per strategy, summary) and returns a
:class:`~repro.analysis.comparison.StrategyComparison` whose rows line
up with the paper's table rows; ``render`` turns it into the paper's
column layout.

Mapping (see DESIGN.md section 4 and EXPERIMENTS.md for
paper-vs-measured values):

=========  =================================================================
Table 1    normal load, round-robin initial, {NoRes, ResSusUtil, ResSusRand}
Table 2    high load (cores halved), round-robin initial, same strategies
Table 3    high load, utilization-based initial, same strategies
Table 4    high load, round-robin initial, {NoRes, ResSusWaitUtil,
           ResSusWaitRand}
Table 5    high load, utilization-based initial, same as Table 4
(in-text)  the high-suspension scenario of Section 3.2.1
=========  =================================================================

``tableN(policies=...)`` replaces the table's strategies with zero-arg
factories or registry spec strings (``"dfrs:share=0.5"``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..analysis.comparison import StrategyComparison
from ..core.policies import no_res, res_sus_rand, res_sus_util, res_sus_wait_rand, res_sus_wait_util
from ..metrics.report import render_table
from ..schedulers.initial import UtilizationBasedScheduler
from ..simulator.config import SimulationConfig
from ..workload.scenarios import busy_week, high_load, high_suspension
from .experiment import Experiment, strategy_comparison

__all__ = [
    "TABLES",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "high_suspension_experiment",
    "render",
]

#: Strategy sets as the paper's tables list them.
_SUSPENDED_ONLY = (no_res, res_sus_util, res_sus_rand)
_WITH_WAITING = (no_res, res_sus_wait_util, res_sus_wait_rand)


#: Table key -> its experiment, in the paper's order.
TABLES: Dict[str, Experiment] = {
    "1": Experiment(
        "Table 1: suspended-job rescheduling, normal load, RR initial",
        busy_week, _SUSPENDED_ONLY, strategy_comparison,
    ),
    "2": Experiment(
        "Table 2: suspended-job rescheduling, high load, RR initial",
        high_load, _SUSPENDED_ONLY, strategy_comparison,
    ),
    "3": Experiment(
        "Table 3: suspended-job rescheduling, high load, util initial",
        high_load, _SUSPENDED_ONLY, strategy_comparison, UtilizationBasedScheduler,
    ),
    "4": Experiment(
        "Table 4: +waiting-job rescheduling, high load, RR initial",
        high_load, _WITH_WAITING, strategy_comparison,
    ),
    "5": Experiment(
        "Table 5: +waiting-job rescheduling, high load, util initial",
        high_load, _WITH_WAITING, strategy_comparison, UtilizationBasedScheduler,
    ),
    # The paper engineered a trace with a ~14% suspend rate and reports a
    # 7% AvgCT reduction over all jobs and 44% over suspended jobs for
    # ResSusUtil; this runs {NoRes, ResSusUtil} on our heavy-burst trace.
    "high-suspension": Experiment(
        "High-suspension scenario (Section 3.2.1, in text)",
        high_suspension, (no_res, res_sus_util), strategy_comparison,
    ),
}


def _table_function(name: str, key: str) -> Callable[..., StrategyComparison]:
    """The public ``name()`` for the table ``key``: a run of its entry."""

    def run_table(
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        config: Optional[SimulationConfig] = None,
        workers: Optional[int] = None,
        cache_dir=None,
        use_cache: Optional[bool] = None,
        progress: Optional[Callable] = None,
        policies: Optional[Sequence] = None,
    ) -> StrategyComparison:
        return TABLES[key].run(scale, seed, None, policies, config, workers, cache_dir, use_cache, progress)

    run_table.__name__ = run_table.__qualname__ = name
    run_table.__doc__ = f"{TABLES[key].title}."
    return run_table


table1 = _table_function("table1", "1")
table2 = _table_function("table2", "2")
table3 = _table_function("table3", "3")
table4 = _table_function("table4", "4")
table5 = _table_function("table5", "5")
high_suspension_experiment = _table_function("high_suspension_experiment", "high-suspension")


def render(comparison: StrategyComparison, title: str = "") -> str:
    """Render a comparison in the paper's table layout."""
    return render_table(list(comparison.summaries), title or comparison.scenario_name)
