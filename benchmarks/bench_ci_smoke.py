"""CI smoke gate: the invariants the execution backend promises.

1. **Parallel == serial.** Table 1 run on a 2-worker fleet must be
   bit-identical to the serial run — per-cell seeds derive from cell
   identity, never from worker order.
2. **Warm cache >= 5x cold.** Table 1's grid rerun against a populated
   result cache must be at least 5x faster than the cold run.  Only
   what the cache can save is timed: both runs start from a scenario
   built outside the clock (generating the workload costs the same
   either way), while each still derives its cell keys from its own
   trace, as a fresh process would.  Measured 17-21x at
   ``REPRO_SCALE=0.08`` on a 2-CPU container.
3. **Telemetry is read-only.** The same simulation with a metrics
   registry and profiler attached must return a bit-identical result,
   while the registry actually fills with event counts.
4. **Skipping samples never changes a summary.** Table 1's cells keep
   only their summaries, so they run without state samples; the same
   grid run with ``keep_results=True`` (samples on) must produce the
   same per-cell summary digests.

CI runs this file at ``REPRO_SCALE=0.08`` (see ``scripts/ci.sh smoke``)
so the whole gate finishes in seconds; it holds at any scale.
"""

from __future__ import annotations

import time

import repro
from repro.analysis.comparison import compare_strategies
from repro.experiments import presets, tables
from repro.experiments.cache import ResultCache, stable_hash
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation, MetricsRegistry, to_prometheus
from repro.workload.scenarios import busy_week

from conftest import banner, run_once

MIN_CACHE_SPEEDUP = 5.0


def test_parallel_matches_serial(benchmark):
    serial = tables.table1(workers=1, use_cache=False)
    parallel = run_once(benchmark, tables.table1, workers=2, use_cache=False)
    print(banner("CI smoke: Table 1, serial vs 2-worker fleet"))
    print(tables.render(parallel, ""))
    assert parallel.summaries == serial.summaries, (
        "parallel Table 1 diverged from serial — per-cell seeding broke"
    )
    assert [c.seed for c in parallel.cells] == [c.seed for c in serial.cells]


def test_cached_rerun_is_faster(benchmark, tmp_path):
    def grid(scenario):
        return compare_strategies(
            scenario,
            [repro.no_res(), repro.res_sus_util(), repro.res_sus_rand()],
            scheduler_factory=RoundRobinScheduler,
            config=SimulationConfig(strict=False),
            cache=ResultCache(tmp_path),
        )

    # two equal scenarios: the warm run keys its cells by its own
    # scenario's recipe, not by anything the cold run left behind
    cold_scenario, warm_scenario = (
        busy_week(presets.table_scale(), presets.seed()) for _ in range(2)
    )
    cold_start = time.perf_counter()
    cold = grid(cold_scenario)
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    warm = grid(warm_scenario)
    warm_seconds = time.perf_counter() - warm_start

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(banner("CI smoke: Table 1 grid, cold vs cached"))
    print(
        f"cold: {cold_seconds:.3f}s   warm: {warm_seconds:.3f}s   "
        f"speedup: {speedup:.1f}x (required >= {MIN_CACHE_SPEEDUP:.0f}x)"
    )
    assert warm.summaries == cold.summaries
    assert all(cell.from_cache for cell in warm.cells)
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"cached rerun only {speedup:.1f}x faster than cold "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
    )

    # a still-warm Table 1 through the public entry point: it reads the
    # same cache entries, and feeds the benchmark table
    table = run_once(benchmark, tables.table1, workers=1, cache_dir=tmp_path)
    assert table.summaries == cold.summaries
    assert all(cell.from_cache for cell in table.cells)


def test_telemetry_is_read_only(benchmark):
    scenario = busy_week(presets.table_scale(), presets.seed())
    plain = repro.simulate(scenario, "ResSusUtil")
    registry = MetricsRegistry()
    observed = run_once(
        benchmark,
        repro.simulate,
        scenario,
        "ResSusUtil",
        instrumentation=Instrumentation(metrics=registry, profile=True),
    )
    assert observed.records == plain.records, (
        "telemetry perturbed the simulation — records diverged"
    )
    assert observed.samples == plain.samples
    events = registry.get("repro_sim_events_total")
    total = sum(child.value for _, child in events.series())
    print(banner("CI smoke: telemetry on vs off"))
    print(f"records: {len(plain.records)}, events counted: {total:.0f}")
    assert total > 0, "metrics registry stayed empty"
    assert "repro_sim_events_total" in to_prometheus(registry)


def test_kept_results_match_summary_only(benchmark):
    summary_only = tables.table1(workers=1, use_cache=False)
    scenario = busy_week(presets.table_scale(), presets.seed())
    kept = run_once(
        benchmark,
        compare_strategies,
        scenario,
        [repro.no_res(), repro.res_sus_util(), repro.res_sus_rand()],
        scheduler_factory=RoundRobinScheduler,
        keep_results=True,
    )
    print(banner("CI smoke: Table 1, summary-only vs kept results"))
    for cell in kept.cells:
        print(
            f"{cell.policy_name:12s} {stable_hash(cell.summary)[:12]} "
            f"samples: {len(cell.result.samples)}"
        )
    assert all(cell.result.samples for cell in kept.cells), (
        "a keep_results cell came back without samples"
    )
    assert [stable_hash(c.summary) for c in kept.cells] == [
        stable_hash(c.summary) for c in summary_only.cells
    ], "skipping state samples changed a Table 1 summary"
    assert [c.seed for c in kept.cells] == [c.seed for c in summary_only.cells]
