"""Deterministic mapping from real trace records onto the paper's model.

A raw SWF or Google-cluster log knows nothing about the paper's
ownership structure — sites, physical pools, business groups, the
three-level priority scheme.  :class:`TraceReplaySpec` is the bridge: a
small, declarative, hashable description of how to project a real log
onto that model, so the projection is (a) reproducible from the spec
alone and (b) cheap to fingerprint for the experiment cache.

The mapping is stateless per job and the projections stream: both
:meth:`TraceReplaySpec.replay_swf` and
:meth:`TraceReplaySpec.replay_google` are constant-memory generators of
:class:`~repro.workload.trace.TraceJob` ready to feed
:func:`~repro.simulator.simulation.run_streaming`.  Determinism knobs:

* **window** — replay only jobs submitted inside
  ``[window_start_minutes, window_end_minutes)`` (original clock,
  before rebasing), mirroring the paper's busy-week slice.  Because
  trace feeds are submit-sorted, the replay stops reading the source
  the moment it passes the window's end.
* **stride / max_jobs** — deterministic scale-down: keep every
  ``stride``-th eligible job, stop after ``max_jobs``.
* **priorities** — SWF queue numbers (resp. Google scheduling classes)
  map through an explicit table onto the paper's LOW/MEDIUM/HIGH
  levels.
* **ownership** — users hash (CRC-32, stable across runs and
  machines) onto business-group candidate-pool sets; HIGH-priority
  jobs can instead be pinned to dedicated pools, matching the paper's
  "configured to only run in specific sets of physical pools".

:func:`trace_digest` fingerprints *(file bytes, spec)* with a streamed
SHA-256 so a multi-GB source never has to be re-parsed just to compute
a cache key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union
from zlib import crc32

from ...errors import TraceError
from ..cluster import ClusterSpec
from ..scenarios import DEFAULT_WAIT_THRESHOLD
from ..trace import PRIORITY_HIGH, PRIORITY_LOW, Trace, TraceJob
from .googlecluster import GoogleTask, iter_google_tasks
from .swf import iter_swf_rows

__all__ = [
    "TraceReplaySpec",
    "TraceScenario",
    "trace_digest",
    "scenario_from_trace",
    "default_replay_spec",
]

_US_PER_MINUTE = 60_000_000.0
_KB_PER_GB = 1024.0 * 1024.0


#: A projected record on the original submit clock:
#: ``(submit_minute, runtime_minutes, source_key, cores, memory_gb, user)``,
#: where ``source_key`` is the SWF queue number / Google scheduling class.
_Mapped = Tuple[float, float, int, int, float, str]


@dataclass(frozen=True)
class TraceReplaySpec:
    """How to project a real trace onto the paper's ownership model.

    All fields are plain immutable values, so a spec is hashable,
    picklable, and JSON-serialisable via :func:`dataclasses.asdict` —
    properties :func:`trace_digest` relies on.

    Attributes:
        window_start_minutes / window_end_minutes: half-open submission
            window on the source's original clock (minutes), applied
            before any rebasing.  ``None`` leaves that side unbounded.
        rebase: shift submissions so the first emitted job lands at
            minute 0 (the engine requires non-negative times; real logs
            rarely start at zero once windowed).
        stride: keep every ``stride``-th window-eligible job (1 = all).
        max_jobs: stop after this many emitted jobs (``None`` = all).
        queue_priorities: ``(source value, priority)`` pairs mapping SWF
            queue numbers — or Google scheduling classes — onto the
            simulator's priority levels.
        default_priority: priority for unmapped source values.
        group_pool_sets: business-group candidate-pool sets; a job's
            user CRC-32-hashes onto one of them.  Empty = unrestricted.
        high_priority_pools: when set, jobs mapped to ``PRIORITY_HIGH``
            are pinned here instead of their group's set.
        swf_statuses: SWF status values to accept (``None`` = any).
        runtime_cap_minutes: clamp runtimes above this (outlier guard).
        min_runtime_minutes: clamp runtimes below this (the simulator
            requires strictly positive service demand).
        cores_cap: clamp per-job core counts (``None`` = unclamped).
        default_memory_gb: memory for records with no usable memory
            field.
        memory_quantum_gb: round every job's memory requirement *up* to
            a multiple of this (0 disables).  Real logs record nearly
            unique byte counts per job; unquantised, every job would
            mint a fresh requirement signature and the simulator's
            signature-keyed eligibility memos (machine, pool, engine)
            would grow linearly with trace length.  Quantising keeps
            the signature set — and therefore replay RSS — bounded by
            the quantum grid, not the trace.
        google_machine_memory_gb: scale for Google's normalised memory
            request (fraction of the largest machine) into GB.
        os_family: OS family stamped on every emitted job.
    """

    window_start_minutes: Optional[float] = None
    window_end_minutes: Optional[float] = None
    rebase: bool = True
    stride: int = 1
    max_jobs: Optional[int] = None
    queue_priorities: Tuple[Tuple[int, int], ...] = ()
    default_priority: int = PRIORITY_LOW
    group_pool_sets: Tuple[Tuple[str, ...], ...] = ()
    high_priority_pools: Optional[Tuple[str, ...]] = None
    swf_statuses: Optional[Tuple[int, ...]] = None
    runtime_cap_minutes: Optional[float] = None
    min_runtime_minutes: float = 1.0 / 60.0
    cores_cap: Optional[int] = None
    default_memory_gb: float = 1.0
    memory_quantum_gb: float = 0.25
    google_machine_memory_gb: float = 64.0
    os_family: str = "linux"

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise TraceError(f"stride must be >= 1, got {self.stride}")
        if self.max_jobs is not None and self.max_jobs < 0:
            raise TraceError(f"max_jobs must be >= 0, got {self.max_jobs}")
        if (
            self.window_start_minutes is not None
            and self.window_end_minutes is not None
            and self.window_end_minutes < self.window_start_minutes
        ):
            raise TraceError(
                f"window end ({self.window_end_minutes}) must be >= "
                f"start ({self.window_start_minutes})"
            )
        if self.min_runtime_minutes <= 0:
            raise TraceError("min_runtime_minutes must be > 0")
        if self.memory_quantum_gb < 0:
            raise TraceError("memory_quantum_gb must be >= 0")
        if self.high_priority_pools is not None and not self.high_priority_pools:
            raise TraceError("high_priority_pools may not be an empty tuple")

    # -- per-record projection ----------------------------------------------------

    def pools_for(self, user: str, priority: int) -> Optional[Tuple[str, ...]]:
        """Candidate-pool set for ``user`` at ``priority`` (None = any)."""
        if priority >= PRIORITY_HIGH and self.high_priority_pools is not None:
            return self.high_priority_pools
        if not self.group_pool_sets:
            return None
        index = crc32(user.encode("utf-8")) % len(self.group_pool_sets)
        return self.group_pool_sets[index]

    def _clamped_runtime(self, runtime_minutes: float) -> float:
        if self.runtime_cap_minutes is not None:
            runtime_minutes = min(runtime_minutes, self.runtime_cap_minutes)
        return max(runtime_minutes, self.min_runtime_minutes)

    def _clamped_cores(self, cores: int) -> int:
        cores = max(1, cores)
        if self.cores_cap is not None:
            cores = min(cores, self.cores_cap)
        return cores

    def _quantized_memory(self, memory_gb: float) -> float:
        """Snap a raw memory requirement onto the quantum grid (rounding
        up, never below one quantum) so replayed jobs share a bounded
        set of requirement signatures; see ``memory_quantum_gb``."""
        quantum = self.memory_quantum_gb
        if quantum <= 0:
            return max(memory_gb, 1e-6)
        return max(1.0, math.ceil(memory_gb / quantum)) * quantum

    def _map_swf(self, row: List[Union[int, float]]) -> Optional[_Mapped]:
        """Project one :func:`iter_swf_rows` row (0-based SWF columns)."""
        if self.swf_statuses is not None and row[10] not in self.swf_statuses:
            return None
        run_time = row[3]
        if run_time <= 0:
            return None
        cores = self._clamped_cores(row[4] if row[4] > 0 else row[7])
        # SWF memory fields are per-processor KB averages; fall back from
        # measured (column 6) to requested (column 9) to the spec default.
        memory_kb = row[6] if row[6] > 0 else row[9]
        memory_gb = (
            memory_kb * cores / _KB_PER_GB if memory_kb > 0 else self.default_memory_gb
        )
        return (
            row[1] / 60.0,
            self._clamped_runtime(run_time / 60.0),
            row[14],
            cores,
            self._quantized_memory(memory_gb),
            f"user-{row[11]}",
        )

    def _map_google(self, task: GoogleTask) -> Optional[_Mapped]:
        if task.runtime_us <= 0:
            return None
        memory_gb = (
            task.memory_request * self.google_machine_memory_gb
            if task.memory_request > 0
            else self.default_memory_gb
        )
        return (
            task.submit_us / _US_PER_MINUTE,
            self._clamped_runtime(task.runtime_us / _US_PER_MINUTE),
            task.scheduling_class,
            1,  # Google tasks are single-slot; cpu_request is fractional.
            self._quantized_memory(memory_gb),
            task.user or "user-unknown",
        )

    # -- streaming replay ----------------------------------------------------------

    def _replay(self, mapped: Iterator[Optional[_Mapped]]) -> Iterator[TraceJob]:
        start, end = self.window_start_minutes, self.window_end_minutes
        stride, max_jobs, rebase = self.stride, self.max_jobs, self.rebase
        os_family, default_priority = self.os_family, self.default_priority
        priorities = dict(self.queue_priorities)
        pools_for = self.pools_for
        emitted = 0
        eligible = 0
        offset: Optional[float] = None
        for record in mapped:
            if record is None:
                continue
            submit, runtime, source_key, cores, memory_gb, user = record
            if start is not None and submit < start:
                continue
            if end is not None and submit >= end:
                # Feeds are submit-sorted: nothing later can re-enter the
                # window, so stop reading the source entirely.
                break
            index = eligible
            eligible += 1
            if index % stride:
                continue
            if offset is None:
                offset = submit if rebase else 0.0
            priority = priorities.get(source_key, default_priority)
            # TraceJob's field order; keyword arguments cost ~10% of this loop.
            yield TraceJob(
                emitted, submit - offset, runtime, priority, cores, memory_gb,
                os_family, pools_for(user, priority), None, user,
            )
            emitted += 1
            if max_jobs is not None and emitted >= max_jobs:
                return

    def replay_swf(self, source) -> Iterator[TraceJob]:
        """Stream an SWF log as simulator-ready jobs (constant memory)."""
        return self._replay(iter_swf_rows(source, self._map_swf))

    def replay_google(self, source) -> Iterator[TraceJob]:
        """Stream a Google task_events CSV as simulator-ready jobs."""
        return self._replay(iter_google_tasks(source, project=self._map_google))

    def replay(self, source, fmt: str) -> Iterator[TraceJob]:
        """Dispatch on ``fmt`` (``"swf"`` or ``"google"``)."""
        if fmt == "swf":
            return self.replay_swf(source)
        if fmt == "google":
            return self.replay_google(source)
        raise TraceError(f"unknown trace format: {fmt!r} (expected 'swf' or 'google')")


def trace_digest(
    path: Union[str, Path], spec: TraceReplaySpec, fmt: str = "swf"
) -> str:
    """Cache identity for *(trace file, replay spec)* without parsing.

    Streams the file's raw bytes through SHA-256 (1 MiB chunks — the
    file is never held in memory) and folds in a canonical JSON
    rendering of the spec plus the format tag.  Two runs share a digest
    iff they replay the same bytes the same way, which is exactly the
    invariant the experiment cache needs.
    """
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1024 * 1024), b""):
            hasher.update(chunk)
    canonical = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"))
    hasher.update(b"|" + fmt.encode("utf-8") + b"|" + canonical.encode("utf-8"))
    return hasher.hexdigest()


def default_replay_spec(template=None, **overrides) -> TraceReplaySpec:
    """The paper-faithful projection for a :class:`ClusterTemplate`.

    Maps source queue/class 1 → MEDIUM and 2 → HIGH (0 and everything
    else stays LOW, matching the paper's dominant-low-priority mix),
    hashes users onto the eight business-group candidate-pool sets, and
    pins HIGH-priority jobs to the large pools — the pools the paper's
    suspension bursts land on.  Pass ``template=None`` for an
    unrestricted (no ownership) spec; keyword overrides win.
    """
    from ..scenarios import _business_group_pool_sets
    from ..trace import PRIORITY_MEDIUM

    settings = dict(
        queue_priorities=((1, PRIORITY_MEDIUM), (2, PRIORITY_HIGH)),
    )
    if template is not None:
        settings["group_pool_sets"] = _business_group_pool_sets(template)
        settings["high_priority_pools"] = tuple(template.large_pool_ids()[:2])
    settings.update(overrides)
    return TraceReplaySpec(**settings)


@dataclass(frozen=True)
class TraceScenario:
    """A :class:`~repro.workload.scenarios.Scenario`-shaped condition
    built from a real trace.

    Structurally compatible with ``Scenario`` (same field names the
    runner and cache read) plus ``trace_digest``: the experiment cache
    uses the digest as the trace's identity instead of re-fingerprinting
    every materialised job, so cache keys stay O(1) in trace size.
    """

    name: str
    description: str
    cluster: ClusterSpec
    trace: Trace
    seed: int
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD
    trace_digest: Optional[str] = field(default=None, compare=False)


def scenario_from_trace(
    name: str,
    source: Union[str, Path],
    cluster: ClusterSpec,
    spec: TraceReplaySpec,
    fmt: str = "swf",
    *,
    seed: int = 0,
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD,
    description: Optional[str] = None,
) -> TraceScenario:
    """Materialise a windowed replay into a runner-ready scenario.

    This is the bridge between streaming ingestion and the grid
    experiments: the (windowed, strided — hence bounded) slice is
    materialised into a :class:`Trace` for the runner, while the cache
    key comes from :func:`trace_digest` and never touches the jobs.
    Unbounded full-trace runs should use
    :func:`~repro.simulator.simulation.run_streaming` instead.
    """
    digest = trace_digest(source, spec, fmt)
    trace = Trace(list(spec.replay(source, fmt)))
    return TraceScenario(
        name=name,
        description=description
        or f"replay of {Path(source).name} ({fmt}, digest {digest[:12]})",
        cluster=cluster,
        trace=trace,
        seed=seed,
        wait_threshold=wait_threshold,
        trace_digest=digest,
    )
