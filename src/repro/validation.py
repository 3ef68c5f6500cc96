"""The paper's claims, defined once, and the experiments they are checked on.

Four pieces of data drive ``repro validate``, ``repro table`` and the
paper benchmarks (``benchmarks/bench_paper.py``):

* :data:`EXPERIMENTS` — experiment key -> :class:`Experiment` (title,
  scenario, strategies, finish step, rendering) for Tables 1-5, the
  in-text high-suspension run and Figures 2-4, defined in
  :mod:`repro.experiments.tables` and :mod:`repro.experiments.figures`;
* :data:`EXTENSIONS` — the experiments beyond the paper: the ablations
  (:mod:`repro.experiments.ablations`), the fault sweep
  (:mod:`repro.experiments.fault_sweep`), inter-site rescheduling
  (:mod:`repro.sites.experiments`) and the Section 2 observations
  (:mod:`repro.experiments.motivation`);
* :data:`CLAIMS` — every qualitative claim the reproduction checks:
  its name, the experiments it needs, the paper's value (computed from
  :mod:`repro.paper` wherever the paper gives a number) and one
  predicate over the needed experiments' results;
* :data:`EXTENSION_CLAIMS` — the same for the extensions; their paper
  column names the future-work item or the cited paper they test.

:func:`validate_all_claims` runs every experiment the claims need as
one grid, so a cell two experiments share (Figure 3's and Table 1's
three, the NoRes rows Tables 4 and 5 share with Tables 2 and 3, the
year-long NoRes run of Figures 2 and 4, the ablations' NoRes and
ResSusUtil rows and Table 2's) is simulated once.

A regression in the simulator or a recalibration of the workload shows
up as a failed claim rather than a silently drifting number.  See
EXPERIMENTS.md for the full paper-vs-measured discussion, including the
known gaps that are deliberately *not* claimed here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .analysis.comparison import reduction_pct
from .experiments import ablations, figures, motivation, tables
from .experiments.fault_sweep import FAULT_SWEEP
from .experiments.experiment import Experiment, execute_grid
from .paper import PAPER_EVALUATION_SETUP, PAPER_FIGURE2, PAPER_HIGH_SUSPENSION, PAPER_TABLES
from .sites.experiments import INTER_SITE
from .workload.scenarios import year

__all__ = [
    "CLAIMS",
    "Claim",
    "ClaimResult",
    "EXPERIMENTS",
    "EXTENSIONS",
    "EXTENSION_CLAIMS",
    "Experiment",
    "ValidationReport",
    "evaluate_claims",
    "run_experiments",
    "validate_all_claims",
    "validate_paper_claims",
]


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one paper claim.

    Attributes:
        claim: short name of the claim.
        paper: what the paper reports.
        measured: what this reproduction measured.
        passed: whether the qualitative claim held.
    """

    claim: str
    paper: str
    measured: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """All claim results plus convenience accessors."""

    results: List[ClaimResult]

    @property
    def passed(self) -> bool:
        """True when every claim held."""
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[ClaimResult]:
        """The claims that did not hold."""
        return [r for r in self.results if not r.passed]

    def render(self) -> str:
        """Human-readable report table, columns sized to their contents."""
        claim_width = max([len("claim")] + [len(r.claim) for r in self.results])
        paper_width = max([len("paper")] + [len(r.paper) for r in self.results])
        rule = "-" * max(100, claim_width + paper_width + 30)
        lines = [f"{'':2} {'claim':<{claim_width}} {'paper':<{paper_width}} measured", rule]
        for r in self.results:
            mark = "OK" if r.passed else "!!"
            lines.append(f"{mark:2} {r.claim:<{claim_width}} {r.paper:<{paper_width}} {r.measured}")
        lines.append(rule)
        lines.append("ALL CLAIMS HOLD" if self.passed else f"{len(self.failures)} CLAIM(S) FAILED")
        return "\n".join(lines)


# -- the experiments ---------------------------------------------------------------

#: experiment key -> experiment, in the paper's order: Tables 1-5, the
#: in-text high-suspension run, then Figures 2-4.
EXPERIMENTS: Dict[str, Experiment] = {**tables.TABLES, **figures.FIGURES}

#: experiment key -> experiment, for the experiments beyond the paper.
#: The fault sweep has no claim, so ``repro validate`` does not run it.
EXTENSIONS: Dict[str, Experiment] = {
    **ablations.ABLATIONS,
    "fault-sweep": FAULT_SWEEP,
    "inter-site": INTER_SITE,
    **motivation.MOTIVATION,
}

#: Every experiment :func:`run_experiments` runs, in report order.
_REGISTRY: Dict[str, Experiment] = {**EXPERIMENTS, **EXTENSIONS}


# -- the claims --------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One qualitative paper claim.

    Attributes:
        name: the claim as the report prints it.
        needs: the :data:`EXPERIMENTS` or :data:`EXTENSIONS` keys whose
            results ``check`` takes, in this order.
        paper: what the paper reports.
        check: ``(*results) -> (measured, holds)``.
    """

    name: str
    needs: Tuple[str, ...]
    paper: str
    check: Callable[..., Tuple[str, bool]]

    @property
    def owner(self) -> str:
        """The experiment that completes ``needs``: its last in report order."""
        return max(self.needs, key=list(_REGISTRY).index)


_REGISTERED: List[Claim] = []


def _claim(name: str, needs: Sequence[str], paper: str):
    """Register the decorated ``check`` as the next claim of :data:`CLAIMS`."""

    def register(check: Callable[..., Tuple[str, bool]]):
        _REGISTERED.append(Claim(name, tuple(needs), paper, check))
        return check

    return register


def _pct(reduction: Optional[float]) -> str:
    """A reduction as the signed change the report prints (-49%)."""
    return f"{-reduction:.0f}%" if reduction is not None else "n/a"


def _paper_cut(key: str, policy: str, metric: str) -> str:
    """The paper's change of ``metric`` under ``policy`` vs NoRes, as :func:`_pct` prints it."""
    if key == "high-suspension":
        return _pct(PAPER_HIGH_SUSPENSION[f"{metric}_reduction"] * 100.0)
    rows = PAPER_TABLES[int(key)]
    return _pct(reduction_pct(getattr(rows["NoRes"], metric), getattr(rows[policy], metric)))


def _cut(name, key, policy, metric, holds=lambda reduction: reduction > 0.0, paper_suffix=""):
    """Claim that ``policy`` reduces ``metric`` vs NoRes in experiment ``key``."""

    @_claim(name, [key], _paper_cut(key, policy, metric) + paper_suffix)
    def check(comparison):
        reduction = getattr(comparison, f"{metric}_reduction")(policy)
        return _pct(reduction), reduction is not None and holds(reduction)


_T1, _T2 = PAPER_TABLES[1], PAPER_TABLES[2]
_CT = "avg_ct_suspended"
_UTIL_PAPER = PAPER_EVALUATION_SETUP["mean_utilization_fraction"] * 100


@_claim("utilization in the 20-60% band (Fig 4)", ["figure4"], f"~{_UTIL_PAPER:.0f}% average")
def _utilization_band(fig4):
    util = fig4.analysis.mean_utilization_pct
    return f"{util:.0f}% average", 20.0 < util < 60.0


_MEDIAN_MEAN = "median {:.0f}, mean {:.0f}"


@_claim(
    "suspensions long and right-skewed (Fig 2)",
    ["figure2"],
    _MEDIAN_MEAN.format(PAPER_FIGURE2["median_minutes"], PAPER_FIGURE2["mean_minutes"]),
)
def _suspensions_skewed(fig2):
    median, mean = fig2.analysis.median_minutes, fig2.analysis.mean_minutes
    return _MEDIAN_MEAN.format(median, mean), median > 30.0 and mean > median


_cut("ResSusUtil cuts suspended jobs' AvgCT (T1)", "1", "ResSusUtil", _CT, lambda r: r > 10.0)
_cut("ResSusUtil cuts AvgWCT by >=33% (T1)", "1", "ResSusUtil", "avg_wct", lambda r: r >= 33.0)
_ARROW = "{:.0f} -> {:.0f} min"


@_claim(
    "ResSusUtil eliminates suspend time (T1)",
    ["1"],
    _ARROW.format(_T1["NoRes"].avg_st, _T1["ResSusUtil"].avg_st),
)
def _suspend_time_eliminated(t1):
    baseline, resched = t1.baseline().avg_st or 0.0, t1.by_name("ResSusUtil").avg_st or 0.0
    return _ARROW.format(baseline, resched), bool(baseline) and resched < 0.25 * baseline


@_claim("random selection clearly worse than util (T1-T3)", ["1", "2", "3"], "Rand backfires")
def _random_backfires(*comparisons):
    worse = all(c.by_name("ResSusRand").avg_wct > c.by_name("ResSusUtil").avg_wct for c in comparisons)
    return ("Rand > Util AvgWCT in T1, T2, T3" if worse else "ordering violated"), worse


@_claim(
    "high load inflates AvgCT(all) (T2 vs T1)",
    ["1", "2"],
    f"{_T2['NoRes'].avg_ct_all / _T1['NoRes'].avg_ct_all:.2f}x",
)
def _high_load_inflates(t1, t2):
    ratio = t2.baseline().avg_ct_all / t1.baseline().avg_ct_all
    return f"{ratio:.2f}x", ratio > 1.2


_cut("rescheduling works under util-based initial (T3)", "3", "ResSusUtil", _CT, paper_suffix=" CT(susp)")


@_claim(
    "waiting-job rescheduling improves further (T4 vs T2)",
    ["2", "4"],
    f"{_paper_cut('4', 'ResSusWaitUtil', _CT)} vs {_paper_cut('2', 'ResSusUtil', _CT)} CT(susp)",
)
def _waiting_improves(t2, t4):
    better = t4.by_name("ResSusWaitUtil").avg_wct < t2.by_name("ResSusUtil").avg_wct
    return ("WaitUtil < Util on AvgWCT" if better else "no improvement"), better


_GAPS = "Rand vs Util AvgWCT {} (T4), {} (T5)"
_SECOND_CHANCE_ROWS = ("ResSusWaitRand", "ResSusWaitUtil")


def _gap(rand: float, util: float) -> str:
    """Rand's AvgWCT relative to Util's, as a signed change (+0.8%)."""
    return f"{(rand / util - 1.0) * 100.0:+.1f}%" if util else "n/a"


@_claim(
    "random ~ util with second chances (T4-T5)",
    ["4", "5"],
    _GAPS.format(*(_gap(*(PAPER_TABLES[t][name].avg_wct for name in _SECOND_CHANCE_ROWS)) for t in (4, 5))),
)
def _random_competitive(*comparisons):
    pairs = [tuple(c.by_name(name).avg_wct for name in _SECOND_CHANCE_ROWS) for c in comparisons]
    close = all(rand < 2.0 * util for rand, util in pairs)
    return _GAPS.format(*(_gap(rand, util) for rand, util in pairs)), close


_cut("ResSusUtil cuts suspended jobs' AvgCT (T2)", "2", "ResSusUtil", _CT)
_VERSUS = "{:.0f} vs {:.0f} min"


@_claim(
    "random worse than util on AvgCT(susp) (T2)",
    ["2"],
    _VERSUS.format(_T2["ResSusRand"].avg_ct_suspended, _T2["ResSusUtil"].avg_ct_suspended),
)
def _random_worse_t2(t2):
    rand, util = (t2.by_name(name).avg_ct_suspended for name in ("ResSusRand", "ResSusUtil"))
    if rand is None or util is None:
        return "n/a", False
    return _VERSUS.format(rand, util), rand > util


@_claim(
    "random's CT(susp) cut stays below util's (T3)",
    ["3"],
    f"Rand {_paper_cut('3', 'ResSusRand', _CT)} vs Util {_paper_cut('3', 'ResSusUtil', _CT)}",
)
def _random_below_util_t3(t3):
    rand, util = (t3.avg_ct_suspended_reduction(name) for name in ("ResSusRand", "ResSusUtil"))
    return f"Rand {_pct(rand)} vs Util {_pct(util)}", rand is None or (util is not None and rand < util)


_cut("ResSusWaitUtil cuts suspended jobs' AvgCT (T4)", "4", "ResSusWaitUtil", _CT)
_cut("ResSusWaitUtil cuts AvgWCT (T4)", "4", "ResSusWaitUtil", "avg_wct")
_WAIT_ROWS = ("NoRes", "ResSusWaitUtil", "ResSusWaitRand")
_TRIPLE = "{:.0f} -> {:.0f} / {:.0f} min"


@_claim(
    "both ResSusWait* beat NoRes on AvgWCT (T5)",
    ["5"],
    _TRIPLE.format(*(PAPER_TABLES[5][name].avg_wct for name in _WAIT_ROWS)),
)
def _waiting_beats_nores_t5(t5):
    base, util, rand = (t5.by_name(name).avg_wct for name in _WAIT_ROWS)
    return _TRIPLE.format(base, util, rand), util < base and rand < base


_cut("ResSusUtil cuts AvgCT(all) (high-suspension)", "high-suspension", "ResSusUtil", "avg_ct_all")
_RATES = "{:.1%} vs {:.1%}"


@_claim(
    "NoRes suspends more than in T1 (high-suspension)",
    ["1", "high-suspension"],
    _RATES.format(PAPER_EVALUATION_SETUP["high_suspension_rate"], _T1["NoRes"].suspend_rate),
)
def _high_suspension_rate(t1, comparison):
    rate, t1_rate = comparison.baseline().suspend_rate, t1.baseline().suspend_rate
    return _RATES.format(rate, t1_rate), rate > t1_rate


@_claim("more than 20 suspended jobs sampled (Fig 2)", ["figure2"], "-")
def _suspension_sample(fig2):
    return f"{fig2.analysis.suspended_jobs} jobs", fig2.analysis.suspended_jobs > 20


@_claim("long suspension tail (Fig 2)", ["figure2"], f"p80 {PAPER_FIGURE2['p80_minutes']:.0f} min")
def _suspension_tail(fig2):
    longest, mean = fig2.analysis.max_minutes, fig2.analysis.mean_minutes
    return f"max {longest:.0f}, mean {mean:.0f}", longest > 2.0 * mean


_TOTALS = "total {:.1f} -> {:.1f} min"


@_claim(
    "ResSusUtil trades suspend for resched waste (Fig 3)",
    ["figure3"],
    _TOTALS.format(_T1["NoRes"].avg_wct, _T1["ResSusUtil"].avg_wct),
)
def _util_trade(fig3):
    no_res, util = fig3.bars()["NoRes"], fig3.bars()["ResSusUtil"]
    return _TOTALS.format(no_res.total, util.total), (
        no_res.resched_time == 0.0
        and util.resched_time > 0.0
        and util.suspend_time < no_res.suspend_time
        and util.total < no_res.total
    )


@_claim(
    "random adds wait and total waste over util (Fig 3)",
    ["figure3"],
    f"total {_T1['ResSusRand'].avg_wct:.1f} vs {_T1['ResSusUtil'].avg_wct:.1f} min",
)
def _random_waste(fig3):
    rand, util = fig3.bars()["ResSusRand"], fig3.bars()["ResSusUtil"]
    return (
        f"total {rand.total:.1f} vs {util.total:.1f}, wait {rand.wait_time:.1f} vs {util.wait_time:.1f}",
        rand.total > util.total and rand.wait_time > util.wait_time,
    )


@_claim("suspension comes in bursts (Fig 4)", ["figure4"], "spikes")
def _suspension_bursts(fig4):
    series = sorted(fig4.analysis.suspension_series())
    median, peak = series[len(series) // 2], fig4.analysis.peak_suspended_jobs
    return f"peak {peak:.0f}, median {median:.1f}", peak > max(4.0 * median, 5.0)


@_claim("suspension while underutilized (Fig 4)", ["figure4"], "mostly <60% util")
def _suspension_underutilized(fig4):
    share = fig4.analysis.suspension_while_underutilized
    return f"{share:.0%} of windows", share > 0.5


#: Every claim, in report order: the paper's headline claims, then the
#: finer shape checks each table and figure adds.
CLAIMS: Tuple[Claim, ...] = tuple(_REGISTERED)


# -- the extensions' claims ----------------------------------------------------------


@_claim("every selector beats NoRes on AvgWCT (selectors)", ["selectors"], "future work: combined metrics")
def _every_selector_helps(comparison):
    baseline = comparison.baseline()
    improvements = {s.policy_name: baseline.avg_wct - s.avg_wct for s in comparison.summaries[1:]}
    best = max(improvements, key=improvements.get)
    return f"best {best} ({improvements[best]:+.1f} min/job)", all(
        s.avg_wct < baseline.avg_wct for s in comparison.summaries[1:]
    )


@_claim("smaller thresholds move jobs more often (threshold)", ["threshold"], "30 min, not swept")
def _threshold_moves(comparison):
    ordered = [s.avg_waiting_moves for s in comparison.summaries[1:]]
    return "moves/job " + " > ".join(f"{m:.3f}" for m in ordered), ordered == sorted(ordered, reverse=True)


@_claim("the 30-min threshold beats NoRes on AvgWCT (threshold)", ["threshold"], "30 min ~ 2x avg wait")
def _thirty_minutes_helps(comparison):
    baseline, thirty = comparison.baseline(), comparison.by_name("ResSusWaitUtil[30m]")
    return _ARROW.format(baseline.avg_wct, thirty.avg_wct), thirty.avg_wct < baseline.avg_wct


@_claim("restart overheads cannot speed suspended jobs (overhead)", ["overhead"], "future work: overheads")
def _overheads_cost(comparison):
    free, worst = comparison.summaries[0], comparison.summaries[-1]
    return (
        f"AvgCT(susp) {_ARROW.format(free.avg_ct_suspended, worst.avg_ct_suspended)}",
        worst.avg_ct_suspended >= free.avg_ct_suspended * 0.95,
    )


@_claim("duplication never hurts suspended jobs (duplication)", ["duplication"], "future work: duplication")
def _duplication_safe(comparison):
    no_res, dup = comparison.baseline(), comparison.by_name("DupSusUtil")
    return (
        f"AvgCT(susp) {_VERSUS.format(dup.avg_ct_suspended, no_res.avg_ct_suspended)}",
        dup.avg_ct_suspended <= no_res.avg_ct_suspended * 1.05,
    )


_MIGRATION_PAPER = "priced migration (arXiv:1204.6631)"


@_claim("dilation cannot shrink resched waste (migration)", ["migration"], _MIGRATION_PAPER)
def _dilation_wastes(comparison):
    free, paper_range = comparison.by_name("MigSusUtil[0%]"), comparison.by_name("MigSusUtil[15%]")
    return (
        f"resched waste {free.waste.resched_time:.1f} -> {paper_range.waste.resched_time:.1f} min",
        paper_range.waste.resched_time >= free.waste.resched_time,
    )


@_claim("migrating at 15% beats staying suspended (migration, T2)", ["2", "migration"], "10-20% VM overhead")
def _migration_beats_suspension(t2, comparison):
    no_res, paper_range = t2.baseline(), comparison.by_name("MigSusUtil[15%]")
    return (
        f"AvgCT(susp) {_VERSUS.format(paper_range.avg_ct_suspended, no_res.avg_ct_suspended)}",
        paper_range.avg_ct_suspended < no_res.avg_ct_suspended,
    )


_SITES_PAPER = "site-then-pool (arXiv:1412.4213)"


def _beats_no_res_across_sites(name: str):
    @_claim(f"{name} beats NoRes on AvgWCT (inter-site)", ["inter-site"], _SITES_PAPER)
    def check(comparison):
        no_res, row = comparison.baseline(), comparison.by_name(name)
        return _ARROW.format(no_res.avg_wct, row.avg_wct), row.avg_wct < no_res.avg_wct


_beats_no_res_across_sites("LocalFirst")
_beats_no_res_across_sites("TransferAware")
_OBSERVATION_3 = "Sec 2.3, observation 3"


@_claim("the burst saturates its target pools (pool imbalance)", ["pool-imbalance"], _OBSERVATION_3)
def _pools_saturate(analysis):
    return f"{len(analysis.episodes)} episodes >= 30 min", bool(analysis.episodes)


@_claim("some pool saturated while the cluster idles (pool imbalance)", ["pool-imbalance"], _OBSERVATION_3)
def _hot_while_idle(analysis):
    return f"{analysis.hot_while_idle_fraction:.0%} of samples", analysis.hot_while_idle_fraction > 0.02


@_claim("saturation without cluster-wide overload (pool imbalance)", ["pool-imbalance"], _OBSERVATION_3)
def _no_overload(analysis):
    peak = max((e.cluster_utilization_during for e in analysis.episodes), default=0.0)
    return f"cluster at most {peak:.0%}", all(e.cluster_utilization_during < 0.8 for e in analysis.episodes)


_SECTION_2_2 = "Sec 2.2, task motivation"


@_claim("ResSusWaitUtil cuts task completion time (task level)", ["task-level"], _SECTION_2_2)
def _tasks_complete_sooner(out):
    base_tasks, res_tasks = out["NoRes"][1], out["ResSusWaitUtil"][1]
    return (
        _ARROW.format(base_tasks.avg_task_completion, res_tasks.avg_task_completion),
        res_tasks.avg_task_completion < base_tasks.avg_task_completion,
    )


@_claim("tasks amplify stragglers' cost (task level, NoRes)", ["task-level"], _SECTION_2_2)
def _tasks_amplify(out):
    base_tasks = out["NoRes"][1]
    return f"{base_tasks.amplification:.2f}x member AvgCT", base_tasks.amplification > 1.0


#: The extensions' claims, in report order.
EXTENSION_CLAIMS: Tuple[Claim, ...] = tuple(_REGISTERED[len(CLAIMS):])


def run_experiments(
    keys: Iterable[str], scale=None, seed=None, year_horizon=None, policies=None, **execution: Any
) -> Dict[str, Any]:
    """Run the experiments in ``keys`` as one grid; key -> result.

    ``keys`` name :data:`EXPERIMENTS` and :data:`EXTENSIONS` entries.
    Every experiment's cells go to one :func:`execute_grid` call
    (``execution``: ``workers``, ``cache_dir``, ``use_cache``,
    ``progress``), where a cell two experiments share is simulated
    once; each experiment then finishes its own slice of the outcomes.
    The year-long experiments' cells come first in the grid: they are
    its longest, so a fleet that starts them first finishes sooner.

    ``scale`` is the cluster scale of *every* cell, the year-long
    Figures 2 and 4 included.  ``None`` takes the presets instead,
    which differ: ``REPRO_SCALE`` (default 0.25) for the tables and
    Figure 3, ``REPRO_YEAR_SCALE`` (default 0.08) for Figures 2 and 4;
    the inter-site study keeps its own defaults (scale 0.2, seed
    2010).  ``policies``, when given, replaces every experiment's
    strategies (see :meth:`Experiment.tasks`).
    """
    keys = list(keys)
    grid: List = []
    slices: Dict[str, slice] = {}
    for key in sorted(keys, key=lambda key: _REGISTRY[key].scenario is not year):
        start = len(grid)
        for task in _REGISTRY[key].tasks(scale, seed, year_horizon, policies):
            grid.append(replace(task, index=len(grid)))
        slices[key] = slice(start, len(grid))
    outcomes = execute_grid(grid, **execution)
    return {key: _REGISTRY[key].finish(outcomes[slices[key]], grid[slices[key]]) for key in keys}


def evaluate_claims(results: Mapping[str, Any], claims: Iterable[Claim] = CLAIMS) -> List[ClaimResult]:
    """Check ``claims`` against already-computed experiment ``results``."""
    evaluated = []
    for claim in claims:
        measured, passed = claim.check(*(results[key] for key in claim.needs))
        evaluated.append(ClaimResult(claim.name, claim.paper, measured, bool(passed)))
    return evaluated


def _validate(claim_sets: Sequence[Sequence[Claim]], scale, seed, year_horizon) -> List[ValidationReport]:
    """Run every experiment ``claim_sets`` need, as one grid, and check each set."""
    needed = {key for claims in claim_sets for claim in claims for key in claim.needs}
    results = run_experiments([key for key in _REGISTRY if key in needed], scale, seed, year_horizon)
    return [ValidationReport(evaluate_claims(results, claims)) for claims in claim_sets]


def validate_paper_claims(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    year_horizon: Optional[float] = None,
) -> ValidationReport:
    """Run every experiment a claim needs, as one grid, and check :data:`CLAIMS`.

    ``scale`` applies to every cell, as in :func:`run_experiments`.
    """
    (report,) = _validate([CLAIMS], scale, seed, year_horizon)
    return report


def validate_all_claims(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    year_horizon: Optional[float] = None,
) -> Tuple[ValidationReport, ValidationReport]:
    """Check :data:`CLAIMS` and :data:`EXTENSION_CLAIMS` on one grid; (paper, extensions).

    ``scale`` applies to every cell, as in :func:`run_experiments`.
    """
    paper, extensions = _validate([CLAIMS, EXTENSION_CLAIMS], scale, seed, year_horizon)
    return paper, extensions
