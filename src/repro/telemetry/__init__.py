"""Typed, deterministic instrumentation for the simulator.

The telemetry subsystem is strictly *observational*: enabling any part
of it never touches the simulation RNG, never advances the simulated
clock, and never changes a single field of a
:class:`~repro.simulator.results.SimulationResult`.  That property is
asserted in CI (telemetry-on runs must be bit-identical to
telemetry-off runs).

Layers, bottom to top:

* :mod:`.registry` — counters, gauges and fixed-bucket histograms in a
  deterministic-iteration :class:`MetricsRegistry`.
* :mod:`.instrumentation` — the :class:`Instrumentation` aggregate the
  simulator accepts (event observers + optional registry + profiler
  switch).
* :mod:`.hooks` — :class:`EngineTelemetry`, the single owner of the
  metric schema; the engine subscribes it as its last event observer.
* :mod:`.layers` — opt-in wall-clock timing of the engine's layers,
  swapped in on their classes for one run and restored after it.
* :mod:`.exporters` — Prometheus text and JSONL snapshot writers and
  their readers.
* :mod:`.progress` — per-cell heartbeats and ``cells.jsonl`` for
  experiment grids.
* :mod:`.stats` — the ``repro stats`` loader/renderer.

This package deliberately imports nothing from :mod:`repro.simulator`
at runtime; the dependency points the other way (the simulator's
config accepts an :class:`Instrumentation`).
"""

from .exporters import (
    JSONL_FILENAME,
    PROMETHEUS_FILENAME,
    parse_prometheus,
    read_jsonl_snapshot,
    snapshot_lines,
    to_prometheus,
    write_jsonl_snapshot,
    write_prometheus,
    write_telemetry_dir,
)
from .hooks import EngineTelemetry
from .instrumentation import NO_INSTRUMENTATION, Instrumentation
from .layers import LayerProfiler, LayerStats, ProfileReport
from .progress import (
    CELLS_FILENAME,
    ProgressReporter,
    cell_provenance,
    read_cells_jsonl,
    write_cells_jsonl,
)
from .registry import (
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .stats import TelemetryStats, load_telemetry_dir, render_stats

__all__ = [
    # registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_DURATION_BUCKETS",
    # instrumentation aggregate
    "Instrumentation",
    "NO_INSTRUMENTATION",
    # engine-facing hooks + profiler
    "EngineTelemetry",
    "LayerProfiler",
    "LayerStats",
    "ProfileReport",
    # exporters
    "to_prometheus",
    "write_prometheus",
    "parse_prometheus",
    "snapshot_lines",
    "write_jsonl_snapshot",
    "read_jsonl_snapshot",
    "write_telemetry_dir",
    "PROMETHEUS_FILENAME",
    "JSONL_FILENAME",
    # progress / per-cell telemetry
    "ProgressReporter",
    "cell_provenance",
    "write_cells_jsonl",
    "read_cells_jsonl",
    "CELLS_FILENAME",
    # stats
    "load_telemetry_dir",
    "render_stats",
    "TelemetryStats",
]
