"""Rendering a run's telemetry directory (`repro stats`).

Loads whatever a telemetry directory contains — the JSONL metrics
snapshot (preferred), the Prometheus text file (fallback), and the
per-cell experiment telemetry — and renders the tables an operator
asks for first: event counters, per-pool gauges, duration histograms,
the engine's layer profile, and the sweep's cache economics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ReproError
from .exporters import (
    JSONL_FILENAME,
    PROMETHEUS_FILENAME,
    parse_prometheus,
    read_jsonl_snapshot,
)
from .layers import LayerStats, ProfileReport
from .progress import CELLS_FILENAME, read_cells_jsonl

__all__ = ["load_telemetry_dir", "render_stats", "TelemetryStats"]


class TelemetryStats:
    """The normalised content of one telemetry directory."""

    def __init__(self, series: List[dict], cells: List[dict], source: str) -> None:
        self.series = series
        self.cells = cells
        self.source = source

    def by_name(self, name: str) -> List[dict]:
        """All series of one metric family, in snapshot order."""
        return [s for s in self.series if s["name"] == name]

    def value(self, name: str, **labels: str) -> Optional[float]:
        """A scalar series value, or ``None`` when absent."""
        for s in self.by_name(name):
            if s.get("labels", {}) == labels:
                return s.get("value")
        return None


def _series_from_prometheus(text: str) -> List[dict]:
    """Lift parsed Prometheus samples into snapshot-style series dicts.

    Histogram bucket/sum/count samples are folded back into one series
    per label set, so the renderer sees the same shape as the JSONL
    reader produces.
    """
    samples = parse_prometheus(text)
    series: List[dict] = []
    histograms: Dict[tuple, dict] = {}
    for (name, labelitems), value in samples.items():
        labels = dict(labelitems)
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base is None:
                continue
            key_labels = {k: v for k, v in labels.items() if k != "le"}
            key = (base, tuple(sorted(key_labels.items())))
            hist = histograms.setdefault(
                key,
                {
                    "name": base,
                    "type": "histogram",
                    "help": "",
                    "labels": key_labels,
                    "sum": 0.0,
                    "count": 0,
                    "buckets": [],
                },
            )
            if suffix == "_sum":
                hist["sum"] = value
            elif suffix == "_count":
                hist["count"] = int(value)
            else:
                edge = labels.get("le", "+Inf")
                hist["buckets"].append([edge, int(value)])
            break
        else:
            series.append(
                {"name": name, "type": "scalar", "help": "", "labels": labels, "value": value}
            )
    series.extend(histograms.values())
    return series


def load_telemetry_dir(directory: Union[str, Path]) -> TelemetryStats:
    """Load a telemetry directory written by the CLI or exporters."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ReproError(f"telemetry directory not found: {directory}")
    jsonl = directory / JSONL_FILENAME
    prom = directory / PROMETHEUS_FILENAME
    if jsonl.exists():
        series = read_jsonl_snapshot(jsonl)
        source = jsonl.name
    elif prom.exists():
        series = _series_from_prometheus(prom.read_text(encoding="utf-8"))
        source = prom.name
    else:
        series = []
        source = "(no metrics snapshot)"
    cells_path = directory / CELLS_FILENAME
    cells = read_cells_jsonl(cells_path) if cells_path.exists() else []
    if not series and not cells:
        raise ReproError(
            f"no telemetry found in {directory} "
            f"(expected {JSONL_FILENAME}, {PROMETHEUS_FILENAME} or {CELLS_FILENAME})"
        )
    return TelemetryStats(series=series, cells=cells, source=source)


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def render_stats(stats: TelemetryStats) -> str:
    """Render the stats tables for the CLI."""
    lines: List[str] = [f"telemetry source: {stats.source}"]

    events = stats.by_name("repro_sim_events_total")
    if events:
        lines += ["", "event counters", f"  {'event':<12} {'count':>10}", "  " + "-" * 23]
        for s in events:
            lines.append(f"  {s['labels'].get('event', ''):<12} {_fmt(s['value']):>10}")
        lines.append(f"  {'total':<12} {_fmt(sum(s['value'] for s in events)):>10}")

    pools = [s["labels"]["pool"] for s in stats.by_name("repro_pool_busy_cores")]
    if pools:
        lines += [
            "",
            "per-pool gauges (at last sample)",
            f"  {'pool':<10} {'busy cores':>10} {'util':>7} {'waiting':>8} {'suspended':>10} "
            f"{'queue peak':>10}",
            "  " + "-" * 60,
        ]
        for pool in pools:
            busy = stats.value("repro_pool_busy_cores", pool=pool) or 0
            util = stats.value("repro_pool_utilization", pool=pool) or 0.0
            waiting = stats.value("repro_pool_waiting_jobs", pool=pool) or 0
            suspended = stats.value("repro_pool_suspended_jobs", pool=pool) or 0
            peak = stats.value("repro_wait_queue_peak_depth", pool=pool)
            peak_text = _fmt(peak) if peak is not None else "-"
            lines.append(
                f"  {pool:<10} {_fmt(busy):>10} {util:>7.2f} {_fmt(waiting):>8} "
                f"{_fmt(suspended):>10} {peak_text:>10}"
            )
        cluster = stats.value("repro_cluster_utilization")
        minutes = stats.value("repro_sim_minutes")
        if cluster is not None:
            lines.append(f"  cluster utilization {cluster:.2f}")
        if minutes is not None:
            lines.append(f"  simulated minutes   {_fmt(minutes)}")

    for name, title in (
        ("repro_wait_duration_minutes", "wait episodes (minutes)"),
        ("repro_suspension_duration_minutes", "suspension episodes (minutes)"),
    ):
        hists = [s for s in stats.by_name(name) if s.get("count")]
        if hists:
            lines += ["", title, f"  {'pool':<10} {'episodes':>9} {'mean':>8}", "  " + "-" * 29]
            for s in hists:
                mean = s["sum"] / s["count"] if s["count"] else 0.0
                lines.append(
                    f"  {s['labels'].get('pool', ''):<10} {s['count']:>9} {mean:>8.1f}"
                )

    wall = stats.value("repro_engine_wall_seconds")
    if wall is not None:
        calls = {
            s["labels"]["layer"]: s["value"]
            for s in stats.by_name("repro_engine_layer_calls_total")
        }
        report = ProfileReport(
            tuple(
                LayerStats(s["labels"]["layer"], calls.get(s["labels"]["layer"], 0), s["value"])
                for s in stats.by_name("repro_engine_layer_self_seconds_total")
            ),
            wall,
        )
        lines += ["", "engine profile"]
        lines += ["  " + line for line in report.render().splitlines()]

    if stats.cells:
        provenances = [_cell_provenance(c) for c in stats.cells]
        sim_seconds = sum(
            c.get("wall_seconds", 0.0)
            for c, p in zip(stats.cells, provenances)
            if p == "computed"
        )
        lines += [
            "",
            "experiment cells",
            f"  {'scenario':<18} {'policy':<16} {'scheduler':<14} {'seconds':>8} {'source':>10}",
            "  " + "-" * 70,
        ]
        for c, provenance in zip(stats.cells, provenances):
            lines.append(
                f"  {c.get('scenario', ''):<18} {c.get('policy', ''):<16} "
                f"{c.get('scheduler', ''):<14} {c.get('wall_seconds', 0.0):>8.2f} "
                f"{_PROVENANCE_LABELS.get(provenance, provenance):>10}"
            )
        split = ", ".join(
            f"{provenances.count(kind)} {label}"
            for kind, label in _PROVENANCE_LABELS.items()
            if provenances.count(kind)
        )
        lines.append(
            f"  {len(stats.cells)} cells ({split}), "
            f"{sim_seconds:.2f}s simulated this run"
        )

    return "\n".join(lines)


#: Provenance value -> rendered source label, in summary-line order.
_PROVENANCE_LABELS = {
    "computed": "simulated",
    "cache_hit": "cache",
    "claimed_elsewhere": "elsewhere",
}


def _cell_provenance(record: dict) -> str:
    """Provenance of one cells.jsonl record, tolerating pre-provenance files."""
    provenance = record.get("provenance")
    if provenance:
        return provenance
    return "cache_hit" if record.get("from_cache") else "computed"
