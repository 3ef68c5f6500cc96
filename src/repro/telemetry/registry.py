"""Typed metrics primitives: counters, gauges and fixed-bucket histograms.

The registry is the in-memory half of the telemetry subsystem: the
engine (and any user code) records into it, the exporters
(:mod:`repro.telemetry.exporters`) serialise it.  The design follows
the Prometheus data model — metric *families* carry a name, a help
string and a tuple of label names; each distinct label-value
combination is one *series* — because that is what every scheduler
monitoring stack the related work describes (Reuther et al.'s
scheduler monitors, RLScheduler's per-step metrics) ultimately speaks.

Three properties matter here more than generality:

* **Deterministic iteration.**  Families iterate in registration order
  and series in first-touch order, so two identical runs export
  byte-identical snapshots (modulo wall-clock profiler values).  No
  dict-order or hash-seed dependence anywhere.
* **Read-only with respect to the simulation.**  Recording never
  consults a clock or an RNG; a registry can therefore be attached to
  an engine without perturbing any simulated quantity.
* **Fixed histogram buckets.**  Bucket edges are frozen at creation
  (no adaptive resizing), so histograms from different runs, pools or
  processes are directly mergeable and comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS",
]

#: Default bucket edges (minutes) for duration histograms.  Roughly
#: geometric from one minute to a day, matching the dynamic range of
#: the paper's wait/suspension times.
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1440.0
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ConfigurationError(f"invalid metric name: {name!r}")
    return name


class _Metric:
    """Common machinery of one metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _child_value(self):
        raise NotImplementedError

    def labels(self, *values: object, **kwargs: object):
        """The series for one label-value combination (created on first use)."""
        if kwargs:
            if values:
                raise ConfigurationError(
                    f"{self.name}: pass label values positionally or by name, not both"
                )
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as exc:
                raise ConfigurationError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(labels: {self.labelnames})"
                ) from None
            if len(kwargs) != len(self.labelnames):
                extra = set(kwargs) - set(self.labelnames)
                raise ConfigurationError(f"{self.name}: unknown labels {sorted(extra)}")
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._series.get(key)
        if child is None:
            child = self._child_value()
            self._series[key] = child
        return child

    def series(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, series object) pairs in first-touch order."""
        return iter(self._series.items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, series={len(self._series)})"


class _CounterSeries:
    """One monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up; got inc({amount})")
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing count (events seen, items processed)."""

    kind = "counter"

    def _child_value(self) -> _CounterSeries:
        return _CounterSeries()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series (only valid without labels)."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """Value of the unlabelled series (0.0 if never incremented)."""
        child = self._series.get(())
        return child.value if child is not None else 0.0


class _GaugeSeries:
    """One settable series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge(_Metric):
    """A value that can go up and down (queue depth, utilization)."""

    kind = "gauge"

    def _child_value(self) -> _GaugeSeries:
        return _GaugeSeries()

    def set(self, value: float) -> None:
        """Set the unlabelled series (only valid without labels)."""
        self.labels().set(value)

    @property
    def value(self) -> float:
        """Value of the unlabelled series (0.0 if never set)."""
        child = self._series.get(())
        return child.value if child is not None else 0.0


class _HistogramSeries:
    """One histogram series: per-bucket counts plus sum and count."""

    __slots__ = ("edges", "bucket_counts", "sum", "count")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.edges = edges
        # one slot per finite edge plus the +Inf overflow slot
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper edge, cumulative count) pairs; last edge is +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for edge, bucket in zip(self.edges, self.bucket_counts):
            running += bucket
            out.append((edge, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram(_Metric):
    """A distribution over fixed, registration-time bucket edges."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError(f"{name}: histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ConfigurationError(
                f"{name}: bucket edges must be strictly increasing, got {edges}"
            )
        self.buckets = edges

    def _child_value(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled series (only valid without labels)."""
        self.labels().observe(value)


class MetricsRegistry:
    """An ordered collection of metric families.

    One registry corresponds to one observed run (or one aggregation
    scope).  Families are created through :meth:`counter`,
    :meth:`gauge` and :meth:`histogram`, which are idempotent: asking
    for an existing name returns the existing family, provided kind
    and label names match (a mismatch is a configuration error, never a
    silent second family).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Metric] = {}

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Create or fetch a counter family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Create or fetch a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> Histogram:
        """Create or fetch a fixed-bucket histogram family."""
        existing = self._families.get(name)
        if existing is not None:
            self._check_match(existing, Histogram, name, labelnames)
            if tuple(float(b) for b in buckets) != existing.buckets:  # type: ignore[attr-defined]
                raise ConfigurationError(
                    f"metric {name!r} re-registered with different buckets"
                )
            return existing  # type: ignore[return-value]
        family = Histogram(name, help, labelnames, buckets)
        self._families[name] = family
        return family

    def _get_or_create(self, cls, name, help, labelnames):
        existing = self._families.get(name)
        if existing is not None:
            self._check_match(existing, cls, name, labelnames)
            return existing
        family = cls(name, help, labelnames)
        self._families[name] = family
        return family

    @staticmethod
    def _check_match(existing: _Metric, cls, name: str, labelnames) -> None:
        if not isinstance(existing, cls) or type(existing) is not cls:
            raise ConfigurationError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ConfigurationError(
                f"metric {name!r} re-registered with different labels "
                f"({existing.labelnames} != {tuple(labelnames)})"
            )

    def get(self, name: str) -> Optional[_Metric]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def collect(self) -> Iterator[_Metric]:
        """All families, in registration order."""
        return iter(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def as_dict(self) -> dict:
        """A plain-data snapshot (the JSONL exporter's source of truth)."""
        families = []
        for family in self.collect():
            series = []
            for label_values, child in family.series():
                labels = dict(zip(family.labelnames, label_values))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": [
                                [edge, count]
                                for edge, count in zip(
                                    list(child.edges) + ["+Inf"],
                                    child.bucket_counts,
                                )
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            families.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "series": series,
                }
            )
        return {"families": families}

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"
