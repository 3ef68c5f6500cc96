"""Streaming result accumulation: constant-memory simulation outputs.

The paper's evaluation replays a year of NetBatch traces — hundreds of
millions of jobs.  Materialising one :class:`JobRecord` per job (the
:class:`~repro.simulator.results.SimulationResult` contract) costs
memory linear in the trace, which caps replay size long before the
engine's throughput does.  :class:`OnlineResults` is the alternative: a
*sink* the engine folds each record into the moment the job completes,
keeping only O(1) aggregate state — the Table-1 statistics, wait and
suspension histograms, and the fault layer's goodput accounting.

Bit-exactness contract: :meth:`OnlineResults.summary` returns a
:class:`~repro.metrics.summary.PerformanceSummary` **bit-identical** to
``summarize(result)`` over the materialised result of the same run.
``summarize`` computes every mean as a left-to-right ``sum()`` over
records in completion order divided by a count; the sink accumulates
the same sums in the same order with the same float additions (adding
to a zero start is exact), so no reassociation ever occurs.
``tests/test_online_results.py`` pins this on a mid-size workload.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .results import JobRecord, StateSample

if False:  # pragma: no cover - import-time cycle breaker, typing only
    from ..metrics.summary import PerformanceSummary  # noqa: F401

__all__ = ["StreamingHistogram", "OnlineResults"]


class StreamingHistogram:
    """Fixed-bin histogram folded one value at a time in O(1) memory.

    Bin edges are supplied up front (minutes); values land in the bin
    whose upper edge is the first one strictly greater than the value,
    with a final unbounded overflow bin.  Tracks count, sum, min and
    max exactly; quantiles are bin-resolution estimates.
    """

    __slots__ = ("_edges", "_counts", "count", "total", "minimum", "maximum")

    #: Default edges for wait/suspension times (minutes): fine below an
    #: hour, coarser into the multi-day tail.
    DEFAULT_EDGES: Tuple[float, ...] = (
        1.0, 5.0, 10.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0,
        960.0, 1440.0, 2880.0, 5760.0, 10080.0,
    )

    def __init__(self, edges: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(edges) if edges is not None else self.DEFAULT_EDGES
        if not chosen or any(b <= a for a, b in zip(chosen, chosen[1:])):
            raise SimulationError("histogram edges must be strictly increasing")
        self._edges = chosen
        self._counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self._counts[bisect_right(self._edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def edges(self) -> Tuple[float, ...]:
        """The bin upper edges (the last bin is unbounded)."""
        return self._edges

    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-bin counts; ``len(edges) + 1`` entries."""
        return tuple(self._counts)

    def mean(self) -> float:
        """Mean of all folded values (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bin-resolution estimate of the ``q``-quantile.

        Returns the upper edge of the bin holding the ``q``-th value
        (the exact maximum for the overflow bin), so the estimate never
        understates the true quantile by more than one bin width.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        cumulative = 0
        for index, bucket in enumerate(self._counts):
            cumulative += bucket
            if cumulative > rank:
                if index < len(self._edges):
                    return self._edges[index]
                return self.maximum
        return self.maximum  # pragma: no cover - loop always covers count

    def render(self, label: str = "histogram") -> str:
        """Compact multi-line rendering for CLI reports."""
        lines = [
            f"{label}: n={self.count}, mean={self.mean():.1f} min, "
            f"p50~{self.quantile(0.5):.0f}, p99~{self.quantile(0.99):.0f}"
        ]
        lower = 0.0
        for index, bucket in enumerate(self._counts):
            if not bucket:
                lower = self._edges[index] if index < len(self._edges) else lower
                continue
            if index < len(self._edges):
                span = f"[{lower:g}, {self._edges[index]:g})"
                lower = self._edges[index]
            else:
                span = f"[{lower:g}, inf)"
            lines.append(f"  {span:>18}: {bucket}")
        return "\n".join(lines)


class OnlineResults:
    """A result sink folding per-job records into constant-size aggregates.

    Drop-in replacement for the engine's default
    :class:`~repro.simulator.results.RecordingSink`: the engine calls
    :meth:`add_record` / :meth:`add_sample` as records and samples are
    produced, reads :attr:`goodput_minutes` for the fault statistics,
    and ends the run with :meth:`finalize`.

    Attributes mirror what :func:`~repro.metrics.summary.summarize`
    derives from the materialised records; :meth:`summary` assembles the
    identical :class:`~repro.metrics.summary.PerformanceSummary`.
    """

    def __init__(self, keep_samples: bool = False) -> None:
        self.job_count = 0
        self.completed_count = 0
        self.suspended_count = 0
        self.failed_count = 0
        self.rejected_only_count = 0
        # Left-to-right sums in completion order, exactly as summarize()
        # computes them over the materialised records.
        self._ct_all_sum = 0.0
        self._ct_suspended_sum = 0.0
        self._st_suspended_sum = 0.0
        self._wait_sum = 0.0
        self._suspend_sum = 0.0
        self._resched_sum = 0.0
        self._restart_sum = 0
        self._waiting_move_sum = 0
        #: Completed reference-speed demand (FaultStats.goodput_minutes).
        self.goodput_minutes = 0.0
        self.wait_histogram = StreamingHistogram()
        self.suspension_histogram = StreamingHistogram()
        self._keep_samples = keep_samples
        self._samples: List[StateSample] = []
        self.sample_count = 0
        self.peak_waiting = 0
        self.peak_suspended = 0
        self._busy_core_minutes = 0.0
        self._core_minutes = 0.0
        self._last_sample_minute: Optional[float] = None
        # Filled by finalize().
        self.pool_ids: Tuple[str, ...] = ()
        self.policy_name = ""
        self.scheduler_name = ""
        self.total_cores = 0
        self.fault_stats = None
        self._finalized = False

    # -- engine-facing sink protocol ---------------------------------------------

    def add_record(self, record: JobRecord) -> None:
        """Fold one completed/rejected/failed job record in."""
        self.job_count += 1
        if record.rejected:
            self.rejected_only_count += 1
            return
        if record.finish_minute is None:
            if record.failed:
                self.failed_count += 1
            return
        self.completed_count += 1
        self._ct_all_sum += record.finish_minute - record.submit_minute
        self._wait_sum += record.wait_time
        self._suspend_sum += record.suspend_time
        self._resched_sum += record.wasted_restart_time
        self._restart_sum += record.restart_count
        self._waiting_move_sum += record.waiting_move_count
        self.goodput_minutes += record.runtime_minutes
        self.wait_histogram.add(record.wait_time)
        if record.suspension_count > 0:
            self.suspended_count += 1
            self._ct_suspended_sum += record.finish_minute - record.submit_minute
            self._st_suspended_sum += record.suspend_time
            self.suspension_histogram.add(record.suspend_time)

    def add_sample(self, sample: StateSample) -> None:
        """Fold one state sample in (kept whole only when requested)."""
        self.sample_count += 1
        if sample.waiting_jobs > self.peak_waiting:
            self.peak_waiting = sample.waiting_jobs
        if sample.suspended_jobs > self.peak_suspended:
            self.peak_suspended = sample.suspended_jobs
        if self._last_sample_minute is not None:
            dt = sample.minute - self._last_sample_minute
            self._busy_core_minutes += sample.busy_cores * dt
            self._core_minutes += sample.total_cores * dt
        self._last_sample_minute = sample.minute
        if self._keep_samples:
            self._samples.append(sample)

    def finalize(
        self,
        pool_ids: Sequence[str],
        policy_name: str,
        scheduler_name: str,
        total_cores: int,
        fault_stats=None,
    ) -> "OnlineResults":
        """Attach run metadata; called once by the engine at end of run."""
        if self._finalized:
            raise SimulationError("OnlineResults.finalize called twice")
        self._finalized = True
        self.pool_ids = tuple(pool_ids)
        self.policy_name = policy_name
        self.scheduler_name = scheduler_name
        self.total_cores = total_cores
        self.fault_stats = fault_stats
        return self

    # -- derived views -------------------------------------------------------------

    @property
    def samples(self) -> Tuple[StateSample, ...]:
        """Retained samples (empty unless built with ``keep_samples``)."""
        return tuple(self._samples)

    @property
    def rejected_count(self) -> int:
        """Jobs not completed — the same remainder ``summarize`` reports.

        ``summarize`` names its not-completed remainder
        ``rejected_count`` (it includes permanent fault failures); this
        mirrors that definition exactly so summaries stay bit-identical.
        """
        return self.job_count - self.completed_count

    def mean_utilization(self) -> float:
        """Time-weighted busy fraction over the sampled span (0 if unsampled)."""
        if self._core_minutes <= 0:
            return 0.0
        return self._busy_core_minutes / self._core_minutes

    def __len__(self) -> int:
        return self.job_count

    def __repr__(self) -> str:
        return (
            f"OnlineResults(policy={self.policy_name}, jobs={self.job_count}, "
            f"completed={self.completed_count}, suspended={self.suspended_count})"
        )

    def summary(self) -> "PerformanceSummary":
        """The run's :class:`PerformanceSummary`.

        Constructed from the streamed sums exactly as
        :func:`~repro.metrics.summary.summarize` constructs it from the
        materialised records — same addition order, same divisions —
        so the two are bit-identical.
        """
        # Imported here, not at module top: metrics.summary imports the
        # simulator package, so a top-level import would be circular.
        from ..metrics.summary import PerformanceSummary, WasteBreakdown

        completed = self.completed_count
        suspended = self.suspended_count

        def mean(total: float, count: int) -> float:
            return total / count if count else 0.0

        return PerformanceSummary(
            policy_name=self.policy_name,
            scheduler_name=self.scheduler_name,
            job_count=self.job_count,
            completed_count=completed,
            rejected_count=self.job_count - completed,
            suspend_rate=suspended / completed if completed else 0.0,
            avg_ct_suspended=(
                mean(self._ct_suspended_sum, suspended) if suspended else None
            ),
            avg_ct_all=mean(self._ct_all_sum, completed),
            avg_st=mean(self._st_suspended_sum, suspended) if suspended else None,
            waste=WasteBreakdown(
                wait_time=mean(self._wait_sum, completed),
                suspend_time=mean(self._suspend_sum, completed),
                resched_time=mean(self._resched_sum, completed),
            ),
            avg_restarts=mean(self._restart_sum, completed),
            avg_waiting_moves=mean(self._waiting_move_sum, completed),
        )
