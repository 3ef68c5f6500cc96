"""The fault-injection sweep: rescheduling policies under machine churn.

The paper evaluates rescheduling on a platform it assumes to be
reliable.  This experiment drops that assumption: the same busy-week
workload is replayed while machines crash and recover as a renewal
process (exponential MTBF/MTTR via
:meth:`repro.faults.FaultConfig.with_exponential_churn`), and each
rescheduling policy is scored on what actually matters under churn —
how long jobs sit suspended, how long they take end to end, and how
much already-computed work the crashes destroy.

For every (machine MTBF x policy) cell the sweep records the full
suspension-time and turnaround (completion-time) distributions as
:class:`~repro.metrics.cdf.EmpiricalCDF`, the run's
:class:`~repro.faults.FaultStats` counters, and the summary row, so the
CLI (``repro faults``) can print percentile tables per MTBF.  Like
every experiment in this repository the sweep is deterministic: same
seed, same cells, bit-identical distributions.

:data:`FAULT_SWEEP` is the sweep's :class:`~.experiment.Experiment`.
Its cells are those of the ``fault-sweep`` grid preset
(:func:`repro.fabric.presets.fault_sweep_grid`), each seeded from its
cell id, so ``repro faults`` and ``repro run-grid --preset
fault-sweep`` agree cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..faults import FaultConfig, FaultStats
from ..metrics.cdf import EmpiricalCDF
from ..metrics.summary import PerformanceSummary
from ..workload.scenarios import high_load
from . import presets
from .experiment import Experiment

__all__ = ["FAULT_SWEEP", "FaultSweepCell", "FaultSweep", "fault_sweep", "fault_sweep_experiment"]

#: Percentiles printed for each CDF column of the rendered sweep.
_RENDER_PERCENTILES = (50.0, 90.0, 99.0)

#: The policies compared under churn, as registry specs: the baseline
#: plus both reschedulers.
_FAULT_POLICY_SPECS = ("NoRes", "ResSusUtil", "ResSusWaitUtil")


@dataclass(frozen=True)
class FaultSweepCell:
    """One (MTBF, policy) run of the fault sweep.

    Attributes:
        mtbf_minutes: per-machine mean time between failures.
        policy_name: the rescheduling policy simulated.
        summary: the run's performance summary.
        fault_stats: the run's fault counters (crashes, kills, retries,
            lost work, goodput).
        suspension_cdf: distribution of total suspension minutes over
            completed jobs that were suspended at least once (``None``
            when no job was).
        turnaround_cdf: distribution of completion time over completed
            jobs (``None`` when nothing completed).
        failed_count: jobs that permanently failed (exhausted retries).
    """

    mtbf_minutes: float
    policy_name: str
    summary: PerformanceSummary
    fault_stats: FaultStats
    suspension_cdf: Optional[EmpiricalCDF]
    turnaround_cdf: Optional[EmpiricalCDF]
    failed_count: int


@dataclass(frozen=True)
class FaultSweep:
    """The full (MTBF x policy) grid plus rendering."""

    mtbf_minutes: Tuple[float, ...]
    mttr_minutes: float
    cells: Tuple[FaultSweepCell, ...]

    def by_mtbf(self, mtbf: float) -> List[FaultSweepCell]:
        """The cells of one MTBF column, policy order preserved."""
        return [c for c in self.cells if c.mtbf_minutes == mtbf]

    def render(self) -> str:
        """Plain-text tables: one block per MTBF, one row per policy."""
        lines = [
            "Fault-injection sweep: machine churn "
            f"(MTTR {self.mttr_minutes:g} min), per-policy suspension and "
            "turnaround percentiles (minutes)"
        ]
        header = (
            f"  {'policy':<16} {'susp-rate':>9} {'failed':>6} "
            f"{'lost-min':>9} {'goodput':>8}"
        )
        for p in _RENDER_PERCENTILES:
            header += f" {'st-p%g' % p:>8}"
        for p in _RENDER_PERCENTILES:
            header += f" {'ct-p%g' % p:>8}"
        for mtbf in self.mtbf_minutes:
            lines.append("")
            lines.append(f"MTBF {mtbf:g} min:")
            lines.append(header)
            for cell in self.by_mtbf(mtbf):
                row = (
                    f"  {cell.policy_name:<16} "
                    f"{cell.summary.suspend_rate:>9.3f} "
                    f"{cell.failed_count:>6d} "
                    f"{cell.fault_stats.lost_work_minutes:>9.1f} "
                    f"{cell.fault_stats.goodput_fraction:>8.3f}"
                )
                for p in _RENDER_PERCENTILES:
                    value = (
                        cell.suspension_cdf.percentile(p)
                        if cell.suspension_cdf is not None
                        else 0.0
                    )
                    row += f" {value:>8.1f}"
                for p in _RENDER_PERCENTILES:
                    value = (
                        cell.turnaround_cdf.percentile(p)
                        if cell.turnaround_cdf is not None
                        else 0.0
                    )
                    row += f" {value:>8.1f}"
                lines.append(row)
        return "\n".join(lines)


def _under_churn(mtbf_minutes, mttr_minutes, job_failure_probability, changes, scenario, policies):
    """Every policy at every rung of the MTBF ladder, rung by rung.

    The MTBF lives in the *config* (the fault model), not the
    scenario/policy/scheduler triple, so each rung is distinguished
    through the cell-id ``variant``: distinct seeds, distinct cache keys.
    ``changes`` are further config changes for every cell.
    """
    mtbfs = mtbf_minutes if mtbf_minutes is not None else presets.fault_mtbfs()
    mttr = mttr_minutes if mttr_minutes is not None else presets.fault_mttr()
    return [
        (
            policy,
            f"mtbf={mtbf:g}",
            {"faults": FaultConfig.with_exponential_churn(
                mtbf, mttr, job_failure_probability=job_failure_probability
            ), **changes},
        )
        for mtbf in mtbfs
        for policy in policies
    ]


def _cell(outcome, task) -> FaultSweepCell:
    result = outcome.result
    churn = task.config.faults.machine_churn
    completed = list(result.completed_records())
    suspended = [r for r in completed if r.was_suspended]
    return FaultSweepCell(
        mtbf_minutes=churn.mtbf.mean(),
        policy_name=outcome.policy_name,
        summary=outcome.summary,
        fault_stats=result.fault_stats,
        suspension_cdf=(
            EmpiricalCDF([r.suspend_time for r in suspended]) if suspended else None
        ),
        turnaround_cdf=(
            EmpiricalCDF([r.completion_time for r in completed]) if completed else None
        ),
        failed_count=result.failed_count(),
    )


def _sweep(outcomes, tasks) -> FaultSweep:
    """The fault sweep's finish: each cell's distributions, from its kept result."""
    cells = tuple(_cell(outcome, task) for outcome, task in zip(outcomes, tasks))
    return FaultSweep(
        mtbf_minutes=tuple(dict.fromkeys(cell.mtbf_minutes for cell in cells)),
        mttr_minutes=tasks[0].config.faults.machine_churn.mttr.mean(),
        cells=cells,
    )


def fault_sweep_experiment(
    mtbf_minutes: Optional[Sequence[float]] = None,
    mttr_minutes: Optional[float] = None,
    job_failure_probability: float = 0.0,
    keep_results: bool = True,
) -> Experiment:
    """The fault sweep over one MTBF ladder, as an experiment.

    The high-load scenario, the three-policy fault family, and one cell
    per policy and rung of the ladder.  ``None`` takes
    :func:`repro.experiments.presets.fault_mtbfs` and
    :func:`~repro.experiments.presets.fault_mttr` when the cells are
    built.  The sweep's percentiles read each cell's job records, so
    its cells keep their results, but without state samples: a run
    under churn goes on long past the last submission, and its samples
    (357,795 in one MTBF-2000 cell at scale 0.1) are never read.  With
    ``keep_results=False`` the cells keep only their summaries and
    their configs stay as built (:func:`repro.fabric.presets.fault_sweep_grid`).
    """
    changes = {"record_samples": False} if keep_results else {}
    return Experiment(
        "Fault-injection sweep: rescheduling policies under machine churn",
        high_load,
        _FAULT_POLICY_SPECS,
        _sweep,
        keep_results=keep_results,
        render_figure=FaultSweep.render,
        strategies=partial(_under_churn, mtbf_minutes, mttr_minutes, job_failure_probability, changes),
    )


#: The fault sweep at the presets' ladder.
FAULT_SWEEP = fault_sweep_experiment()


def fault_sweep(
    mtbf_minutes: Optional[Sequence[float]] = None,
    mttr_minutes: Optional[float] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    job_failure_probability: float = 0.0,
) -> FaultSweep:
    """Run the (machine MTBF x policy) fault grid; deterministic per seed.

    Its cells are those of
    :func:`repro.fabric.presets.fault_sweep_grid` (same cell ids, same
    per-cell seeds), so a summary here equals that grid's.

    Args:
        mtbf_minutes: MTBF values to sweep; defaults to
            :func:`repro.experiments.presets.fault_mtbfs`.
        mttr_minutes: mean repair time; defaults to
            :func:`repro.experiments.presets.fault_mttr`.
        scale: cluster/workload scale (default: table preset).
        seed: workload seed (default: preset seed).
        job_failure_probability: additional per-execution-segment
            transient job failure probability (retried with backoff).
    """
    experiment = fault_sweep_experiment(mtbf_minutes, mttr_minutes, job_failure_probability)
    return experiment.run(scale, seed)
