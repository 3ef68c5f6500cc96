"""Grid cells that keep only a summary run without state samples.

``_simulate_task`` turns ``record_samples`` off for a cell that keeps
only its summary, because :func:`~repro.metrics.summary.summarize` reads
job records alone.  These tests pin the three halves of that contract:

* a summary-only cell's summary and fault counters equal those of the
  same cell run with samples, across the grid presets, the plugin
  policies and machine churn;
* a cell that keeps its result, checks invariants or carries
  instrumentation still samples every tick;
* the cell's config and cache key stay exactly as built.

It also pins the ``max_minutes`` corner where the two runs once
differed: a run that ends just inside the bound completes either way.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.experiments import parallel
from repro.experiments.cache import cell_cache_key, stable_hash
from repro.experiments.parallel import _simulate_task, make_cell_task
from repro.fabric.presets import fault_sweep_grid, smoke_grid
from repro.faults import NO_FAULTS, FaultConfig
from repro.policies import policy_from_spec
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation, MetricsRegistry
from repro.workload.scenarios import Scenario

from conftest import make_cluster, make_job, make_trace

CHURN = FaultConfig.with_exponential_churn(3000.0, 60.0)


def _plugin_cells():
    """A dfrs and a migration_cost cell on the smoke scenario, with and without churn."""
    scenario = repro.smoke(seed=11)
    tasks = []
    for faults in (NO_FAULTS, CHURN):
        config = SimulationConfig(strict=False, faults=faults)
        for spec in ("dfrs", "migration_cost"):
            tasks.append(
                make_cell_task(
                    len(tasks),
                    scenario,
                    policy_from_spec(spec),
                    RoundRobinScheduler(),
                    config,
                )
            )
    return tasks


#: Grid name -> builder of the cells whose summaries are compared.
GRIDS = {
    "smoke": lambda: smoke_grid(seed=2010),
    # One rung (hundreds of crashes per cell) of the fault grid that
    # BENCH_grid.json times.
    "fault-sweep": lambda: fault_sweep_grid(
        scale=0.06, seed=2010, mtbf_minutes=(8_000.0,)
    ),
    "plugins": _plugin_cells,
}


@pytest.fixture
def engine_results(monkeypatch):
    """Every SimulationResult ``_simulate_task`` produces, in call order."""
    seen = []
    real = parallel.run_simulation

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(parallel, "run_simulation", spy)
    return seen


def _plain_cell(config: SimulationConfig, keep_result: bool = False):
    scenario = repro.smoke(seed=3)
    return make_cell_task(
        0, scenario, repro.res_sus_util(), RoundRobinScheduler(), config,
        keep_result=keep_result,
    )


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_summary_only_cells_match_sampled_cells(grid, engine_results):
    tasks = GRIDS[grid]()
    churned = 0
    for task in tasks:
        assert not task.keep_result
        _, lean_summary, kept, _ = _simulate_task(task)
        lean = engine_results[-1]
        assert kept is None
        assert lean.samples == (), f"{task.cell_id} still built samples"

        _, full_summary, full, _ = _simulate_task(
            dataclasses.replace(task, keep_result=True)
        )
        assert full is engine_results[-1]
        assert full.samples, f"{task.cell_id} kept its result without samples"

        assert stable_hash(lean_summary) == stable_hash(full_summary), task.cell_id
        assert lean.records == full.records, task.cell_id
        assert lean.fault_stats == full.fault_stats, task.cell_id
        if lean.fault_stats is not None and lean.fault_stats.machine_crashes:
            churned += 1
    if grid != "smoke":
        assert churned, f"no {grid} cell saw a machine crash"


def test_kept_result_keeps_samples():
    task = _plain_cell(SimulationConfig(strict=False), keep_result=True)
    _, _, result, _ = _simulate_task(task)
    assert result is not None and result.samples


def test_invariant_checks_keep_samples(engine_results):
    task = _plain_cell(SimulationConfig(strict=False, check_invariants=True))
    _, _, kept, _ = _simulate_task(task)
    assert kept is None
    assert engine_results[-1].samples, "invariant checks lost their sample ticks"


def test_instrumented_cell_keeps_samples():
    registry = MetricsRegistry()
    task = _plain_cell(
        SimulationConfig(
            strict=False, instrumentation=Instrumentation(metrics=registry)
        )
    )
    _simulate_task(task)
    ticks = registry.get("repro_sim_samples_total")
    assert ticks is not None
    assert sum(child.value for _, child in ticks.series()) > 0


def test_config_and_cache_key_stay_as_built(engine_results):
    config = SimulationConfig(strict=False)
    task = _plain_cell(config)
    key = task.cache_key
    _simulate_task(task)
    assert engine_results[-1].samples == ()
    assert task.config.record_samples is True
    assert task.cache_key == key == cell_cache_key(
        task.scenario, task.policy, task.scheduler, task.config
    )
    lean_key = cell_cache_key(
        task.scenario,
        task.policy,
        task.scheduler,
        dataclasses.replace(task.config, record_samples=False),
    )
    assert lean_key != key, "record_samples is part of the config fingerprint"


def test_max_minutes_bound_agrees_with_and_without_sampling():
    # The one job finishes at minute 99, inside max_minutes=100; the
    # sampler's next tick (minute 105) lies past the bound and is never
    # queued, so the summary-only cell and the same cell with its result
    # kept both complete, with equal summaries.
    scenario = Scenario(
        name="one-job",
        description="one 99-minute job",
        cluster=make_cluster(),
        trace=make_trace([make_job(0, runtime=99.0)]),
        seed=1,
    )
    config = SimulationConfig(strict=False, sample_interval=7.0, max_minutes=100.0)
    task = make_cell_task(
        0, scenario, repro.res_sus_util(), RoundRobinScheduler(), config
    )
    _, summary, kept, _ = _simulate_task(task)
    assert kept is None and summary.completed_count == 1
    _, full_summary, result, _ = _simulate_task(dataclasses.replace(task, keep_result=True))
    assert result.samples[-1].minute == 98.0
    assert stable_hash(full_summary) == stable_hash(summary)
