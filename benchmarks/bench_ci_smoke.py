"""CI smoke gate: the invariants the execution backend promises.

1. **Parallel == serial.** Table 1 run on a 2-worker fleet must be
   bit-identical to the serial run — per-cell seeds derive from cell
   identity, never from worker order.
2. **Warm cache >= 5x cold.** A second invocation against a populated
   result cache must be at least 5x faster than the cold run (measured
   ~14x at smoke scale; 5 leaves generous headroom for noisy CI boxes).
3. **Telemetry is read-only.** The same simulation with a metrics
   registry and profiler attached must return a bit-identical result,
   while the registry actually fills with event counts.

CI runs this file at ``REPRO_SCALE=0.08`` (see ``scripts/ci.sh smoke``)
so the whole gate finishes in seconds; it holds at any scale.
"""

from __future__ import annotations

import time

import repro
from repro.experiments import presets, tables
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
    cold_start = time.perf_counter()
    cold = tables.table1(workers=1, cache_dir=tmp_path)
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    warm = tables.table1(workers=1, cache_dir=tmp_path)
    warm_seconds = time.perf_counter() - warm_start

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(banner("CI smoke: Table 1, cold vs cached"))
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

    # a third (still warm) pass feeds the benchmark table
    run_once(benchmark, tables.table1, workers=1, cache_dir=tmp_path)


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
