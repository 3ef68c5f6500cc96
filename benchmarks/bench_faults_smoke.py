"""CI fault smoke: the invariants the robustness layer promises.

1. **Faulty runs are reproducible.** The same seed and the same
   `FaultConfig` must produce byte-identical records and fault
   counters across two fresh engine runs.
2. **Parallel == serial under faults.** A fault-enabled experiment
   grid on a 2-worker fleet must be bit-identical to the serial run,
   exactly like the zero-fault grids in ``bench_ci_smoke.py``.
3. **Worker death is survived.** A grid containing a cell whose worker
   process is forcibly killed mid-simulation must retry that cell and
   still complete every cell.
4. **Skipping samples never changes a summary under faults.** The
   fault-enabled grid's cells keep only their summaries and run without
   state samples; with ``keep_result=True`` (samples on) every cell's
   summary digest must be the same.

CI runs this file from ``scripts/ci.sh smoke``; it holds at any scale.
"""

from __future__ import annotations

import os

import repro
from repro.experiments.cache import stable_hash
from repro.experiments.parallel import make_cell_task, run_grid_parallel
from repro.faults import FaultConfig
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig

from conftest import banner, run_once

CHURN = FaultConfig.with_exponential_churn(3000.0, 60.0)


def _fault_config() -> SimulationConfig:
    return SimulationConfig(strict=False, faults=CHURN)


def _record_key(record):
    return (
        record.job_id,
        record.finish_minute,
        record.wait_time,
        record.suspend_time,
        record.restart_count,
        record.machine_failures,
        record.transient_failures,
        record.failed,
    )


def test_fault_run_deterministic(benchmark):
    scenario = repro.smoke(seed=7)

    def faulty_run():
        return repro.run_simulation(
            scenario.trace, scenario.cluster, config=_fault_config()
        )

    first = faulty_run()
    second = run_once(benchmark, faulty_run)
    print(banner("fault smoke: same-seed churn run, twice"))
    stats = first.fault_stats
    print(
        f"crashes: {stats.machine_crashes}, attempts killed: "
        f"{stats.attempts_killed}, lost work: {stats.lost_work_minutes:.0f} min, "
        f"goodput: {stats.goodput_fraction:.1%}"
    )
    assert stats.machine_crashes > 0, "churn injected no crashes at smoke scale"
    assert [_record_key(r) for r in second.records] == [
        _record_key(r) for r in first.records
    ], "same-seed fault run diverged — fault streams are not deterministic"
    assert second.fault_stats == first.fault_stats


def _fault_grid_tasks(keep_result: bool = False):
    scenario = repro.smoke(seed=7)
    config = _fault_config()
    policies = [repro.no_res(), repro.res_sus_util()]
    return [
        make_cell_task(
            i, scenario, policy, RoundRobinScheduler(), config,
            keep_result=keep_result,
        )
        for i, policy in enumerate(policies)
    ]


def test_fault_grid_parallel_matches_serial(benchmark):
    serial = run_grid_parallel(_fault_grid_tasks(), n_workers=1)
    parallel = run_once(
        benchmark, run_grid_parallel, _fault_grid_tasks(), n_workers=2
    )
    print(banner("fault smoke: fault-enabled grid, serial vs 2-worker fleet"))
    for outcome in parallel.outcomes:
        print(f"{outcome.policy_name:12s} AvgCT {outcome.summary.avg_ct_all:8.1f}")
    assert [o.summary for o in parallel.outcomes] == [
        o.summary for o in serial.outcomes
    ], "fault-enabled grid diverged between serial and parallel execution"


def test_fault_grid_kept_results_match_summary_only(benchmark):
    summary_only = run_grid_parallel(_fault_grid_tasks(), n_workers=1)
    kept = run_once(
        benchmark, run_grid_parallel, _fault_grid_tasks(keep_result=True),
        n_workers=1,
    )
    print(banner("fault smoke: fault-enabled grid, summary-only vs kept results"))
    for outcome in kept.outcomes:
        stats = outcome.result.fault_stats
        print(
            f"{outcome.policy_name:12s} {stable_hash(outcome.summary)[:12]} "
            f"samples: {len(outcome.result.samples)}, crashes: {stats.machine_crashes}"
        )
    assert all(o.result.samples for o in kept.outcomes), (
        "a keep_result cell came back without samples"
    )
    assert [stable_hash(o.summary) for o in kept.outcomes] == [
        stable_hash(o.summary) for o in summary_only.outcomes
    ], "skipping state samples changed a fault-enabled summary"


class CrashOnceScheduler(RoundRobinScheduler):
    """Kills its worker process on the first run; behaves after that."""

    name = "CrashOnce"

    def __init__(self, marker: str) -> None:
        super().__init__()
        self._marker = marker

    def order(self, candidates, view):
        if not os.path.exists(self._marker):
            with open(self._marker, "w"):
                pass
            os._exit(42)
        return super().order(candidates, view)


def test_worker_crash_is_retried(benchmark, tmp_path):
    scenario = repro.smoke(seed=7)
    config = _fault_config()
    marker = str(tmp_path / "crashed-once")

    def build_tasks():
        schedulers = [
            RoundRobinScheduler(),
            CrashOnceScheduler(marker),
        ]
        return [
            make_cell_task(i, scenario, repro.no_res(), scheduler, config)
            for i, scheduler in enumerate(schedulers)
        ]

    def crash_and_recover():
        if os.path.exists(marker):
            os.unlink(marker)
        return run_grid_parallel(build_tasks(), n_workers=2)

    report = run_once(benchmark, crash_and_recover)
    print(banner("fault smoke: grid survives a worker kill"))
    print(
        f"cells completed: {len(report.completed)}/2, "
        f"crash marker present: {os.path.exists(marker)}"
    )
    assert report.ok, "grid did not recover from the worker kill"
    assert len(report.completed) == 2
    assert os.path.exists(marker), "the crashing cell never actually crashed"
