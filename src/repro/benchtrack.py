"""Performance trajectories: measure, record, compare.

The simulator's hot paths are rewritten over time (sharded wait
queues, calendar event scheduling, incremental pool accounting), and
"it felt faster" is not evidence.  This module gives the repo tracked
performance trajectories, one per **suite** (:data:`SUITES`):

* ``engine`` (``BENCH_engine.json``) — in-process simulation
  throughput over a fixed **workload matrix** (:data:`WORKLOADS`);
* ``ingest`` (``BENCH_ingest.json``) — the real-trace pipeline end to
  end, with its peak RSS;
* ``grid`` (``BENCH_grid.json``) — experiment grids through the
  distributed fabric's backends;
* ``chaos`` (``BENCH_chaos.json``) — recovery of a supervised fleet
  under seeded fault scenarios.

Every suite shares one :class:`Record` schema, appended per PR to its
file by ``scripts/bench_record.py`` (oldest first), one loader
(:func:`load_history`), one writer (:func:`write_record`) and one
regression gate (:func:`check_regression`).  A suite supplies only its
spec and result types, its measure function and its gate terms.

Shared by all four:

* a **calibration score** (a fixed pure-Python spin measured on the
  same interpreter just before the workloads) so records taken on
  different machines can be compared as ratios rather than raw rates;
* the gate joins cells by name and skips a cell whose spec changed, so
  a renamed or re-scoped cell simply starts a new trajectory;
* a per-cell **result digest** (engine and grid) makes every timing
  run double as a correctness tripwire — an optimisation that changes
  scheduling decisions shows up as a digest flip even when it is fast.

Timings use the best (minimum) wall-clock of N rounds: the minimum is
the least noisy location statistic for "how fast can this code go"
on a machine with background load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import ReproError
from .simulator.config import SimulationConfig

__all__ = [
    "SCHEMA_VERSION",
    "BenchFormatError",
    "Record",
    "Suite",
    "SUITES",
    "calibrate",
    "result_digest",
    "load_history",
    "write_record",
    "record_to_dict",
    "record_from_dict",
    "check_regression",
    "WorkloadSpec",
    "WorkloadResult",
    "WORKLOADS",
    "QUICK_WORKLOADS",
    "measure_workload",
    "measure_table1",
    "IngestSpec",
    "IngestResult",
    "INGEST_WORKLOADS",
    "INGEST_RSS_SLACK",
    "measure_ingest",
    "GridSpec",
    "GridBackendTiming",
    "GridResult",
    "GRID_WORKLOADS",
    "QUICK_GRID_WORKLOADS",
    "GRID_MIN_SPEEDUP",
    "measure_grid",
    "ChaosSpec",
    "ChaosScenarioResult",
    "CHAOS_SCENARIOS",
    "CHAOS_THRESHOLD",
    "CHAOS_EPSILON_SECONDS",
    "measure_chaos",
]

#: Bumped when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


class BenchFormatError(ReproError):
    """A BENCH_*.json file does not match the expected schema."""


@dataclass(frozen=True)
class Record:
    """One point on a suite's performance trajectory.

    Attributes:
        suite: key into :data:`SUITES` naming the trajectory.
        label: what was measured — normally the abbreviated git
            revision, set by ``scripts/bench_record.py``.
        recorded_at: ISO-8601 timestamp, or ``None`` in deterministic
            tests.
        calibration_score: iterations/second of the fixed calibration
            spin on the recording machine; divide a rate by it to
            compare across machines.
        results: the suite's per-cell results, in matrix order.
        notes: free-form context (host class, special conditions).
        available_cores: CPUs on the recording host (grid and chaos
            suites, whose speedups are bounded by it).
        table1_cold_seconds: engine suite — wall-clock of the Table-1
            campaign with a cold cache (``None`` when skipped).
        table1_warm_seconds: engine suite — the cache-warm rerun
            (``None`` when skipped).
    """

    suite: str
    label: str
    recorded_at: Optional[str]
    calibration_score: float
    results: Tuple[Any, ...]
    notes: str = ""
    available_cores: Optional[int] = None
    table1_cold_seconds: Optional[float] = None
    table1_warm_seconds: Optional[float] = None


@dataclass(frozen=True)
class Suite:
    """One trajectory family: its file, cell types, matrix and gate terms.

    Attributes:
        name: key in :data:`SUITES` and :attr:`Record.suite`.
        path: default trajectory file.
        cells_key: JSON key of a record's per-cell list; it also tells
            :func:`record_from_dict` which suite a record belongs to.
        spec_type: frozen dataclass naming one cell; the gate compares
            cells only when their specs are equal.
        result_type: frozen dataclass of one measured cell, with a
            ``spec`` field.
        matrix: the cells a full measurement runs.
        quick: the cheap subset ``--quick`` measures.
        measure: ``(spec, rounds, progress) -> result``.
        gate: ``(previous, current, calibration, threshold) -> failures``
            for one same-spec cell pair; ``calibration`` is the two
            records' scores.
        floor: ``(current) -> failures`` for gates that need no
            baseline, or ``None``.
        threshold: default allowed fractional regression.
        header: :class:`Record` fields the suite writes besides the
            common ones.
        renames: JSON key for a spec field whose name a result field
            already uses.
        nested: result fields holding a tuple of dataclasses, and their
            type.
    """

    name: str
    path: str
    cells_key: str
    spec_type: type
    result_type: type
    matrix: Tuple[Any, ...]
    quick: Tuple[Any, ...]
    measure: Callable[[Any, int, Callable[[str], None]], Any]
    gate: Callable[[Any, Any, Tuple[float, float], float], List[str]]
    floor: Optional[Callable[[Any], List[str]]] = None
    threshold: float = 0.20
    header: Tuple[str, ...] = ()
    renames: Tuple[Tuple[str, str], ...] = ()
    nested: Tuple[Tuple[str, type], ...] = ()


def calibrate(iterations: int = 2_000_000, rounds: int = 3) -> float:
    """Score this interpreter/machine with a fixed pure-Python spin.

    Returns iterations per second, best of ``rounds``.  The spin mixes
    integer arithmetic, attribute-free name lookups and list appends —
    the same operation mix the simulator burns — so the ratio
    ``jobs_per_second / calibration_score`` is roughly
    machine-independent and is what the regression gate compares.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        sink: List[int] = []
        append = sink.append
        for i in range(iterations):
            acc += i & 7
            if not i & 1023:
                append(acc)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return iterations / best


def result_digest(result) -> str:
    """SHA-256 over a simulation's job records (order included)."""
    hasher = hashlib.sha256()
    for record in result.records:
        hasher.update(repr(record).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


# -- shared gate terms ---------------------------------------------------------------


def _rate_drop(
    label: str,
    what: str,
    before: float,
    after: float,
    calibration: Optional[Tuple[float, float]],
    threshold: float,
    unit: str = "",
) -> List[str]:
    """One failure when a rate fell more than ``threshold``.

    With ``calibration`` (previous, current scores) each rate is first
    divided by its record's score.  A non-positive baseline rate is not
    gated; speedups never fail.
    """
    if calibration is not None:
        before, after = before / calibration[0], after / calibration[1]
    if before <= 0:
        return []
    drop = 1.0 - after / before
    if drop <= threshold:
        return []
    return [
        f"{label}: {what} dropped {drop:.1%} (limit {threshold:.0%}; "
        f"{before:.4f} -> {after:.4f}{unit})"
    ]


def _digest_change(label: str, kind: str, before: str, after: str, why: str) -> List[str]:
    """One failure when both digests are set and differ."""
    if before and after and before != after:
        return [f"{label}: {kind} digest changed ({before[:12]} -> {after[:12]}) — {why}"]
    return []


# -- engine trajectory (BENCH_engine.json) -------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One fixed cell of the throughput matrix.

    Attributes:
        name: stable identifier; comparisons join records on it.
        scenario: scenario factory name (``busy_week``,
            ``high_suspension`` or ``high_load``).
        scale: workload scale passed to the scenario factory.
        policy: paper strategy name (one of ``PAPER_POLICY_NAMES``),
            or ``none`` for the bare dispatcher.
        seed: simulation seed.
        faults: when True, run under exponential machine churn —
            exercises the eviction/requeue paths the fault-free cells
            never touch.
    """

    name: str
    scenario: str = "busy_week"
    scale: float = 0.08
    policy: str = "ResSusWaitUtil"
    seed: int = 0
    faults: bool = False


@dataclass(frozen=True)
class WorkloadResult:
    """Measured throughput of one workload cell."""

    spec: WorkloadSpec
    jobs: int
    rounds: int
    best_wall_seconds: float
    jobs_per_second: float
    result_digest: str


#: The tracked matrix.  Reduced-scale cells cover the policy spread
#: (bare dispatcher, the paper's heaviest policy, the suspension-heavy
#: scenario, fault churn); the full-scale cell is the headline number
#: quoted in docs/performance.md.
WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(name="busy_week_nores", policy="none"),
    WorkloadSpec(name="busy_week_wait_util"),
    WorkloadSpec(name="high_suspension_util", scenario="high_suspension",
                 scale=0.25, policy="ResSusUtil"),
    WorkloadSpec(name="busy_week_churn", faults=True),
    WorkloadSpec(name="busy_week_full", scale=1.0),
)

#: The cheap subset CI measures on every push (the full-scale cell
#: takes minutes on a loaded runner and adds nothing to the gate).
QUICK_WORKLOADS: Tuple[WorkloadSpec, ...] = tuple(
    spec for spec in WORKLOADS if spec.scale <= 0.25
)


def _build_workload(spec: WorkloadSpec):
    """Resolve a spec to ``(trace, cluster, policy_factory, config)``."""
    from . import busy_week, high_load, high_suspension
    from .policies import policy_from_spec

    scenarios = {
        "busy_week": busy_week,
        "high_suspension": high_suspension,
        "high_load": high_load,
    }
    try:
        factory = scenarios[spec.scenario]
    except KeyError:
        raise BenchFormatError(f"unknown scenario {spec.scenario!r}") from None
    scenario = factory(scale=spec.scale)
    policy = None if spec.policy == "none" else policy_from_spec(spec.policy)
    faults = None
    if spec.faults:
        from .faults import FaultConfig, MachineChurn
        from .workload.distributions import Exponential

        faults = FaultConfig(
            machine_churn=MachineChurn(
                mtbf=Exponential(3000.0), mttr=Exponential(60.0)
            )
        )
    config = SimulationConfig(
        strict=False,
        seed=spec.seed,
        record_samples=False,
        **({"faults": faults} if faults is not None else {}),
    )
    return scenario, policy, config


def measure_workload(spec: WorkloadSpec, rounds: int = 3) -> WorkloadResult:
    """Run one cell ``rounds`` times; report the best round.

    Every round's record digest must agree with the first — a digest
    flip between same-seed rounds means the engine is nondeterministic,
    which is reported as an error rather than a timing.
    """
    from . import run_simulation

    scenario, policy, config = _build_workload(spec)
    best = float("inf")
    digest = None
    jobs = 0
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        result = run_simulation(
            scenario.trace, scenario.cluster, policy=policy, config=config
        )
        elapsed = time.perf_counter() - start
        round_digest = result_digest(result)
        if digest is None:
            digest = round_digest
            jobs = len(result.records)
        elif round_digest != digest:
            raise BenchFormatError(
                f"workload {spec.name}: same-seed rounds produced different "
                f"results ({digest[:12]} vs {round_digest[:12]})"
            )
        if elapsed < best:
            best = elapsed
    return WorkloadResult(
        spec=spec,
        jobs=jobs,
        rounds=max(1, rounds),
        best_wall_seconds=best,
        jobs_per_second=jobs / best if best > 0 else 0.0,
        result_digest=digest or "",
    )


def measure_table1(scale: float = 0.08) -> Tuple[float, float]:
    """Time the Table-1 campaign cold, then cache-warm.

    Returns ``(cold_seconds, warm_seconds)``.  Uses a throwaway cache
    directory so the warm number measures the on-disk result cache,
    not a previous local run.
    """
    import shutil
    import tempfile

    from .experiments import tables

    cache_dir = tempfile.mkdtemp(prefix="benchtrack-table1-")
    try:
        start = time.perf_counter()
        tables.table1(scale=scale, workers=1, cache_dir=cache_dir, use_cache=True)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        tables.table1(scale=scale, workers=1, cache_dir=cache_dir, use_cache=True)
        warm = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return cold, warm


def _engine_gate(prev, cur, calibration, threshold) -> List[str]:
    """Digest must reproduce; normalised jobs/sec may not drop."""
    name = cur.spec.name
    return _digest_change(
        name, "result", prev.result_digest, cur.result_digest,
        "same-spec records no longer reproduce the committed run",
    ) + _rate_drop(
        name, "normalised throughput", prev.jobs_per_second,
        cur.jobs_per_second, calibration, threshold,
        " jobs/sec per calibration unit",
    )


# -- streaming-ingestion trajectory (BENCH_ingest.json) -----------------------------
#
# The engine matrix above times in-process simulation of synthetic
# scenarios.  The ingestion trajectory tracks the *real-trace pipeline*
# end to end — fixture bytes on disk, streaming parse, replay mapping,
# engine, OnlineResults sink — and, crucially, its peak RSS, because
# the whole point of streaming ingestion is that memory stays constant
# in trace length.  Each cell is measured in a **fresh subprocess**
# (``python -m repro ingest … --json``): ``ru_maxrss`` is a
# process-lifetime high-water mark, so measuring in-process would
# report whatever the fixture generator or a previous cell peaked at.


@dataclass(frozen=True)
class IngestSpec:
    """One fixed cell of the ingestion matrix.

    Attributes:
        name: stable identifier; comparisons join records on it.
        fmt: fixture/trace format (``swf`` or ``google``).
        jobs: fixture size in jobs (tasks for ``google``).
        seed: fixture content seed.
        scale: cluster scale the replay runs against (fixture arrival
            rates are derived from the same cluster).
        utilization: fixture's offered load vs that cluster.
    """

    name: str
    fmt: str = "swf"
    jobs: int = 100_000
    seed: int = 1
    scale: float = 0.1
    utilization: float = 0.35


@dataclass(frozen=True)
class IngestResult:
    """Measured end-to-end replay of one ingestion cell."""

    spec: IngestSpec
    jobs: int
    wall_seconds: float
    jobs_per_second: float
    peak_rss_mb: float


#: The tracked ingestion matrix: the headline SWF cell (the CI gate's
#: fixture size) plus a smaller Google-CSV cell covering the
#: watermark-reorder path.
INGEST_WORKLOADS: Tuple[IngestSpec, ...] = (
    IngestSpec(name="swf_100k"),
    IngestSpec(name="google_30k", fmt="google", jobs=30_000),
)

#: Allowed fractional peak-RSS growth over the baseline.
INGEST_RSS_SLACK = 0.25


def measure_ingest(spec: IngestSpec, rounds: int = 3) -> IngestResult:
    """Generate the cell's fixture and replay it in a fresh subprocess.

    The subprocess runs ``python -m repro ingest <fixture> --json`` and
    reports its own wall clock and ``ru_maxrss``, so the number is the
    full pipeline's footprint with no contamination from this process.
    The replay runs ``rounds`` times (same methodology as the engine
    matrix): the *best* throughput round is recorded — scheduler noise
    only ever slows a run down — along with the *worst* peak RSS, the
    conservative direction for the memory gate.
    """
    import shutil
    import subprocess
    import sys as sys_module
    import tempfile

    from .workload.traces import generate_google_fixture, generate_swf_fixture

    fixture_dir = tempfile.mkdtemp(prefix="benchtrack-ingest-")
    try:
        suffix = ".swf" if spec.fmt == "swf" else ".csv"
        fixture = os.path.join(fixture_dir, f"{spec.name}{suffix}")
        generate = generate_swf_fixture if spec.fmt == "swf" else generate_google_fixture
        # Derive target cores exactly as `repro ingest --scale` will.
        from .workload.cluster import ClusterTemplate
        from .workload.distributions import RandomStreams

        cluster = ClusterTemplate(scale=spec.scale).build(RandomStreams(2010))
        generate(
            fixture,
            spec.jobs,
            seed=spec.seed,
            target_cores=cluster.total_cores,
            utilization=spec.utilization,
        )
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        best: Optional[Dict] = None
        worst_rss = 0.0
        for _ in range(max(1, rounds)):
            proc = subprocess.run(
                [
                    sys_module.executable,
                    "-m",
                    "repro",
                    "ingest",
                    fixture,
                    "--format",
                    spec.fmt,
                    "--scale",
                    str(spec.scale),
                    "--json",
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            if proc.returncode != 0:
                raise BenchFormatError(
                    f"ingest cell {spec.name} failed "
                    f"(exit {proc.returncode}): {proc.stderr.strip()[:500]}"
                )
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                raise BenchFormatError(
                    f"ingest cell {spec.name}: unparseable JSON output ({exc})"
                ) from None
            worst_rss = max(worst_rss, payload["peak_rss_mb"])
            if best is None or payload["jobs_per_second"] > best["jobs_per_second"]:
                best = payload
        return IngestResult(
            spec=spec,
            jobs=best["jobs"],
            wall_seconds=best["wall_seconds"],
            jobs_per_second=best["jobs_per_second"],
            peak_rss_mb=worst_rss,
        )
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)


def _ingest_gate(prev, cur, calibration, threshold) -> List[str]:
    """Normalised jobs/sec may not drop; peak RSS may not creep.

    RSS is already machine-comparable, and creeping memory is exactly
    the regression streaming ingestion exists to prevent; the 16 MB
    absolute allowance absorbs interpreter noise.
    """
    failures = _rate_drop(
        cur.spec.name, "normalised ingest throughput", prev.jobs_per_second,
        cur.jobs_per_second, calibration, threshold,
        " jobs/sec per calibration unit",
    )
    rss_limit = prev.peak_rss_mb * (1.0 + INGEST_RSS_SLACK) + 16.0
    if cur.peak_rss_mb > rss_limit:
        failures.append(
            f"{cur.spec.name}: peak RSS grew from {prev.peak_rss_mb:.0f} MB "
            f"to {cur.peak_rss_mb:.0f} MB (limit {rss_limit:.0f} MB) — "
            f"streaming ingestion is leaking memory"
        )
    return failures


# -- distributed-fabric grid trajectory (BENCH_grid.json) ----------------------------
#
# The engine matrix times one simulation; the grid trajectory times the
# *fabric* — a whole experiment grid executed through the distributed
# backends (serial baseline, then N subprocess workers racing cells via
# the lease protocol).  Each measurement records cells/sec per backend,
# the warm-cache rerun wall, and a digest over every cell's summary:
# a sharded run that is not bit-identical to the serial run is a
# correctness failure, never a timing.
#
# Two cells:
#
# * ``fault_sweep`` — the real CPU-bound grid.  Its speedup is honest
#   and therefore bounded by ``available_cores`` (recorded in every
#   record): on a 1-core CI box N workers time-slice one CPU and the
#   speedup is ~1x by construction.
# * ``smoke_padded`` — cheap cells padded to a fixed wall floor via
#   ``REPRO_FABRIC_CELL_FLOOR``, making the grid scheduling-bound
#   rather than CPU-bound.  This isolates the quantity the fabric
#   itself controls — claim/publish overlap — so the >= 3x @ 4 workers
#   gate holds even on single-core runners, and a fabric-layer
#   serialisation bug (workers accidentally convoying on a lock or a
#   lease) shows up as a speedup collapse no matter the host.


@dataclass(frozen=True)
class GridSpec:
    """One fixed cell of the fabric grid matrix.

    Attributes:
        name: stable identifier; comparisons join records on it.
        preset: fabric grid preset (``fault-sweep``, ``smoke``,
            ``table1``).
        scale: workload scale handed to the preset builder (``None``
            for the preset default).
        seed: base workload seed.
        cell_floor: seconds each computed cell is padded to via
            ``REPRO_FABRIC_CELL_FLOOR`` (0 = unpadded, CPU-bound).
        worker_counts: subprocess worker fleets to measure.
    """

    name: str
    preset: str
    scale: Optional[float] = None
    seed: int = 2010
    cell_floor: float = 0.0
    worker_counts: Tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class GridBackendTiming:
    """One backend's wall clock over one grid."""

    backend: str
    wall_seconds: float
    cells_per_second: float


@dataclass(frozen=True)
class GridResult:
    """Measured execution of one grid across its backends.

    ``digest`` hashes the ordered per-cell summary digests; every
    backend (and the serial baseline) must produce the same value.
    ``warm_seconds`` is a rerun against the already-populated cache.
    """

    spec: GridSpec
    cells: int
    digest: str
    timings: Tuple[GridBackendTiming, ...]
    warm_seconds: float

    def timing(self, backend: str) -> Optional[GridBackendTiming]:
        for entry in self.timings:
            if entry.backend == backend:
                return entry
        return None

    def speedup(self, workers: int) -> Optional[float]:
        """Cells/sec at ``workers`` subprocess workers vs one."""
        one = self.timing("subprocess:1")
        many = self.timing(f"subprocess:{workers}")
        if one is None or many is None or one.cells_per_second <= 0:
            return None
        return many.cells_per_second / one.cells_per_second


#: Minimum subprocess:4 / subprocess:1 speedup for padded grids.
GRID_MIN_SPEEDUP = 3.0

#: The tracked fabric matrix (see the section comment above).
GRID_WORKLOADS: Tuple[GridSpec, ...] = (
    GridSpec(name="fault_sweep", preset="fault-sweep", scale=0.06, seed=2010),
    # The 3s floor is sized so the 12 padded cells dominate worker
    # startup (4 interpreters booting on one shared core costs ~1.6s
    # of wall): expected speedup ~(0.4 + 12*F) / (1.6 + 3*F) ≈ 3.4x
    # at F=3, comfortably above the 3x overlap gate.
    GridSpec(
        name="smoke_padded", preset="smoke", seed=2010, cell_floor=3.0,
        worker_counts=(1, 2, 4),
    ),
)

#: The cheap subset CI gates on every push: the padded grid is
#: sleep-bound, so it is fast, noise-tolerant and core-count-agnostic.
QUICK_GRID_WORKLOADS: Tuple[GridSpec, ...] = tuple(
    spec for spec in GRID_WORKLOADS if spec.cell_floor > 0
)


def _grid_digest(report) -> str:
    """Order-sensitive digest over every completed cell's summary."""
    from .experiments.cache import stable_hash

    hasher = hashlib.sha256()
    for outcome in report.completed:
        hasher.update(stable_hash(outcome.summary).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def measure_grid(
    spec: GridSpec,
    progress: Optional[Callable[[str], None]] = None,
) -> GridResult:
    """Execute one grid serially and through each subprocess fleet.

    Every backend gets a fresh cache directory (cold run); the largest
    fleet's cache is reused for the warm-rerun measurement.  A digest
    mismatch between any two runs raises — the fabric's determinism
    contract is a precondition for the timings meaning anything.
    """
    import shutil
    import tempfile

    from .experiments.cache import ResultCache
    from .experiments.parallel import run_grid_parallel
    from .fabric import SubprocessWorkerBackend, build_grid, run_grid_fabric
    from .fabric.worker import CELL_FLOOR_ENV

    def build():
        return build_grid(spec.preset, scale=spec.scale, seed=spec.seed)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    timings: List[GridBackendTiming] = []
    digest: Optional[str] = None
    cells = len(build())

    def note(report, backend: str, wall: float) -> None:
        nonlocal digest
        if not report.ok:
            raise BenchFormatError(
                f"grid {spec.name}: {len(report.failures)} cell(s) failed "
                f"under {backend}"
            )
        run_digest = _grid_digest(report)
        if digest is None:
            digest = run_digest
        elif run_digest != digest:
            raise BenchFormatError(
                f"grid {spec.name}: {backend} diverged from the serial "
                f"baseline ({digest[:12]} vs {run_digest[:12]}) — the "
                "fabric broke bit-identical sharding"
            )
        timings.append(
            GridBackendTiming(
                backend=backend,
                wall_seconds=wall,
                cells_per_second=cells / wall if wall > 0 else 0.0,
            )
        )

    old_floor = os.environ.get(CELL_FLOOR_ENV)
    warm_seconds = 0.0
    try:
        if spec.cell_floor > 0:
            os.environ[CELL_FLOOR_ENV] = str(spec.cell_floor)
        elif CELL_FLOOR_ENV in os.environ:
            del os.environ[CELL_FLOOR_ENV]

        if spec.cell_floor == 0:
            # CPU-bound grids get a pool-free serial baseline; padded
            # grids skip it (run_grid_parallel has no floor, so the
            # comparison would be meaningless) and use subprocess:1.
            say(f"grid {spec.name}: serial baseline ({cells} cells)")
            start = time.perf_counter()
            report = run_grid_parallel(build(), n_workers=1)
            note(report, "serial", time.perf_counter() - start)

        for workers in spec.worker_counts:
            backend = SubprocessWorkerBackend(workers, poll_interval=0.05)
            say(f"grid {spec.name}: {backend.name}")
            cache_dir = tempfile.mkdtemp(prefix=f"benchtrack-grid-{spec.name}-")
            try:
                start = time.perf_counter()
                report = run_grid_fabric(
                    build(), backend, ResultCache(cache_dir), poll_interval=0.05
                )
                note(report, backend.name, time.perf_counter() - start)
                if workers == max(spec.worker_counts):
                    start = time.perf_counter()
                    warm = run_grid_fabric(
                        build(), backend, ResultCache(cache_dir),
                        poll_interval=0.05,
                    )
                    warm_seconds = time.perf_counter() - start
                    counts = warm.provenance_counts()
                    if counts.get("cache_hit", 0) != cells:
                        raise BenchFormatError(
                            f"grid {spec.name}: warm rerun recomputed cells "
                            f"(provenance {counts!r}) — the cache key broke"
                        )
                    if _grid_digest(warm) != digest:
                        raise BenchFormatError(
                            f"grid {spec.name}: warm rerun diverged from "
                            "the cold digest"
                        )
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
    finally:
        if old_floor is None:
            os.environ.pop(CELL_FLOOR_ENV, None)
        else:
            os.environ[CELL_FLOOR_ENV] = old_floor

    return GridResult(
        spec=spec,
        cells=cells,
        digest=digest or "",
        timings=tuple(timings),
        warm_seconds=warm_seconds,
    )


def _grid_gate(prev, cur, calibration, threshold) -> List[str]:
    """Digest must reproduce; per-backend cells/sec may not drop.

    Backends are joined by name.  CPU-bound grids (``cell_floor == 0``)
    are calibration-normalised like the engine matrix; padded grids
    compare raw cells/sec, which is already machine-comparable because
    the cells are wall-clock-bound.
    """
    name = cur.spec.name
    failures = _digest_change(
        name, "per-cell", prev.digest, cur.digest,
        "sharded results no longer reproduce the committed grid",
    )
    normalise = calibration if cur.spec.cell_floor == 0 else None
    unit = "normalised " if normalise else ""
    before = {t.backend: t for t in prev.timings}
    for timing in cur.timings:
        if timing.backend in before:
            failures += _rate_drop(
                f"{name}/{timing.backend}", f"{unit}cells/sec",
                before[timing.backend].cells_per_second,
                timing.cells_per_second, normalise, threshold,
            )
    return failures


def _grid_floor(cur) -> List[str]:
    """Padded grids must keep their 4-vs-1-worker overlap speedup.

    A collapse means the fabric started serialising its workers.
    """
    speedup = cur.speedup(4) if cur.spec.cell_floor > 0 else None
    if speedup is None or speedup >= GRID_MIN_SPEEDUP:
        return []
    return [
        f"{cur.spec.name}: subprocess:4 speedup fell to {speedup:.2f}x "
        f"(floor {GRID_MIN_SPEEDUP:.1f}x) — fabric workers are serialising"
    ]


# -- chaos-recovery trajectory (BENCH_chaos.json) ------------------------------------
#
# The grid trajectory measures how fast the fabric runs when nothing
# goes wrong; the chaos trajectory measures how fast it *recovers*
# when everything does.  Each record replays the seeded fault
# scenarios from :mod:`repro.chaos` against a live supervised fleet
# and captures the recovery clock (first worker failure -> every cell
# published) plus the audit's counters.  Two gates follow:
#
# * **invariants** — any audit violation in the current record is a
#   hard failure regardless of history; a chaos run that loses a cell
#   or diverges from the serial digests is broken, not slow.
# * **recovery time** — per scenario joined by (name, seed, workers),
#   recovery may not regress more than the threshold (default 25%)
#   over the committed record, with a small absolute epsilon so
#   sub-second baselines are not gated on scheduler jitter.
#
# Recovery is dominated by deliberately-injected waits (lease TTL,
# restart backoff), so it is wall-clock-bound and machine-comparable
# without calibration normalisation — same reasoning as the padded
# grids above.


@dataclass(frozen=True)
class ChaosSpec:
    """One tracked chaos scenario configuration."""

    name: str
    seed: int = 2010
    workers: int = 4


@dataclass(frozen=True)
class ChaosScenarioResult:
    """One scenario's measured recovery, audit counters included."""

    spec: ChaosSpec
    cells: int
    wall_seconds: float
    recovery_seconds: float
    restarts: int
    quarantined: int
    cells_recovered: int
    takeovers: int
    swept_leases: int
    violations: Tuple[str, ...]


#: Recovery-time regressions beyond this fraction fail the gate.
CHAOS_THRESHOLD = 0.25

#: Absolute slack added to every recovery gate: scenario recovery is
#: seconds-scale and quantised by poll intervals and backoff steps, so
#: a purely relative gate would flap on sub-second baselines.
CHAOS_EPSILON_SECONDS = 0.75

#: The tracked scenario matrix (the ``straggler`` control injects no
#: faults, so its recovery clock never starts — nothing to track).
CHAOS_SCENARIOS: Tuple[ChaosSpec, ...] = (
    ChaosSpec(name="kill-storm", seed=2010, workers=4),
    ChaosSpec(name="heartbeat-freeze", seed=2010, workers=4),
    ChaosSpec(name="corruption", seed=2010, workers=4),
)


def measure_chaos(spec: ChaosSpec) -> ChaosScenarioResult:
    """Run one chaos scenario and distil its report into a result.

    Violations are *recorded*, not raised — the regression gate turns
    them into failures so a bad run still lands in the operator's
    hands as a diffable record.
    """
    from .chaos import run_scenario

    report = run_scenario(spec.name, seed=spec.seed, workers=spec.workers)
    return ChaosScenarioResult(
        spec=spec,
        cells=report.cells,
        wall_seconds=report.wall_seconds,
        recovery_seconds=report.recovery_seconds,
        restarts=report.restarts,
        quarantined=report.quarantined,
        cells_recovered=report.cells_recovered,
        takeovers=report.takeovers,
        swept_leases=report.swept_leases,
        violations=report.violations,
    )


def _chaos_gate(prev, cur, calibration, threshold) -> List[str]:
    """Recovery may not exceed ``prev * (1 + threshold) + epsilon``.

    A run with violations on either side is not gated on time: the
    floor already fails a violated current run, and a violated
    baseline's clock measures a broken recovery.
    """
    if cur.violations or prev.violations:
        return []
    allowed = prev.recovery_seconds * (1.0 + threshold) + CHAOS_EPSILON_SECONDS
    if cur.recovery_seconds <= allowed:
        return []
    return [
        f"{cur.spec.name}: recovery took {cur.recovery_seconds:.2f}s, over the "
        f"{allowed:.2f}s limit ({prev.recovery_seconds:.2f}s baseline + "
        f"{threshold:.0%} + {CHAOS_EPSILON_SECONDS:.2f}s slack)"
    ]


def _chaos_floor(cur) -> List[str]:
    """Any invariant violation fails, baseline or not."""
    return [f"{cur.spec.name}: invariant violated — {v}" for v in cur.violations]


#: Every tracked trajectory, keyed by :attr:`Record.suite`.
SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="engine", path="BENCH_engine.json", cells_key="workloads",
            spec_type=WorkloadSpec, result_type=WorkloadResult,
            matrix=WORKLOADS, quick=QUICK_WORKLOADS,
            measure=lambda spec, rounds, progress: measure_workload(spec, rounds),
            gate=_engine_gate,
            header=("table1_cold_seconds", "table1_warm_seconds"),
        ),
        Suite(
            name="ingest", path="BENCH_ingest.json", cells_key="ingests",
            spec_type=IngestSpec, result_type=IngestResult,
            matrix=INGEST_WORKLOADS, quick=INGEST_WORKLOADS,
            measure=lambda spec, rounds, progress: measure_ingest(spec, rounds),
            gate=_ingest_gate,
            renames=(("jobs", "fixture_jobs"),),
        ),
        Suite(
            name="grid", path="BENCH_grid.json", cells_key="grids",
            spec_type=GridSpec, result_type=GridResult,
            matrix=GRID_WORKLOADS, quick=QUICK_GRID_WORKLOADS,
            measure=lambda spec, rounds, progress: measure_grid(spec, progress),
            gate=_grid_gate, floor=_grid_floor,
            header=("available_cores",),
            nested=(("timings", GridBackendTiming),),
        ),
        Suite(
            name="chaos", path="BENCH_chaos.json", cells_key="scenarios",
            spec_type=ChaosSpec, result_type=ChaosScenarioResult,
            matrix=CHAOS_SCENARIOS, quick=CHAOS_SCENARIOS,
            measure=lambda spec, rounds, progress: measure_chaos(spec),
            gate=_chaos_gate, floor=_chaos_floor,
            threshold=CHAOS_THRESHOLD,
            header=("available_cores",),
        ),
    )
}


# -- JSON round-trip -----------------------------------------------------------------


def record_to_dict(record: Record) -> Dict:
    """Plain-JSON form of one record (inverse of :func:`record_from_dict`).

    Each cell flattens its spec's fields next to the result's.
    """
    suite = SUITES[record.suite]
    renames = dict(suite.renames)
    cells = []
    for result in record.results:
        cell = asdict(result)
        spec = cell.pop("spec")
        cell.update((renames.get(key, key), value) for key, value in spec.items())
        cells.append(cell)
    data = {
        "schema_version": SCHEMA_VERSION,
        "label": record.label,
        "recorded_at": record.recorded_at,
        "calibration_score": record.calibration_score,
        "notes": record.notes,
        suite.cells_key: cells,
    }
    data.update((name, getattr(record, name)) for name in suite.header)
    return data


def _from_plain(cls: type, data: Dict, renames: Dict[str, str], skip: str = "") -> Dict:
    """Keyword arguments for dataclass ``cls`` from its JSON form.

    Lists become tuples; a missing key raises ``KeyError``.
    """
    kwargs = {}
    for field in fields(cls):
        if field.name == skip:
            continue
        value = data[renames.get(field.name, field.name)]
        kwargs[field.name] = tuple(value) if isinstance(value, list) else value
    return kwargs


def record_from_dict(data: Dict) -> Record:
    """Parse one record dict, validating the schema.

    The suite is the one whose ``cells_key`` the record carries.
    """
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise BenchFormatError(f"unsupported bench schema version {version!r}")
        suite = next((s for s in SUITES.values() if s.cells_key in data), None)
        if suite is None:
            keys = ", ".join(s.cells_key for s in SUITES.values())
            raise BenchFormatError(f"bench record has none of the cell lists {keys}")
        renames = dict(suite.renames)
        nested = dict(suite.nested)
        results = []
        for cell in data[suite.cells_key]:
            values = _from_plain(suite.result_type, cell, {}, skip="spec")
            for name, kind in nested.items():
                values[name] = tuple(kind(**_from_plain(kind, item, {})) for item in values[name])
            spec = suite.spec_type(**_from_plain(suite.spec_type, cell, renames))
            results.append(suite.result_type(spec=spec, **values))
        return Record(
            suite=suite.name,
            label=data["label"],
            recorded_at=data["recorded_at"],
            calibration_score=data["calibration_score"],
            results=tuple(results),
            notes=data.get("notes", ""),
            **{name: data[name] for name in suite.header},
        )
    except KeyError as exc:
        raise BenchFormatError(f"bench record is missing field {exc}") from None


def load_history(path: str) -> List[Record]:
    """All records in ``path``, oldest first; ``[]`` when absent."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "records" not in data:
        raise BenchFormatError(f"{path}: expected an object with a 'records' list")
    return [record_from_dict(entry) for entry in data["records"]]


def write_record(path: str, record: Record, append: bool = True) -> int:
    """Persist ``record``; returns the new history length.

    With ``append`` (the default) the record joins the existing
    trajectory; without it the file is rewritten to hold only this
    record — useful for starting a fresh trajectory after a schema or
    matrix change.  Appending to another suite's trajectory raises.
    """
    history = load_history(path) if append else []
    if any(entry.suite != record.suite for entry in history):
        raise BenchFormatError(f"{path} is not a {record.suite} trajectory")
    history.append(record)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [record_to_dict(entry) for entry in history],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(history)


# -- regression gate -----------------------------------------------------------------


def check_regression(
    previous: Optional[Record],
    current: Record,
    threshold: Optional[float] = None,
) -> List[str]:
    """Compare a record with its baseline; returns failures (empty = pass).

    The suite's floor (grid overlap speedup, chaos invariants) applies
    to every current cell whether or not a baseline exists.  With a
    ``previous`` record, cells are joined by name and compared only
    when their spec is unchanged, through the suite's gate terms at
    ``threshold`` (the suite's default when ``None``).  Speedups never
    fail.

    Raises:
        BenchFormatError: a record has a non-positive calibration
            score, or the two records belong to different suites.
    """
    suite = SUITES[current.suite]
    if threshold is None:
        threshold = suite.threshold
    records = (current,) if previous is None else (previous, current)
    if any(record.calibration_score <= 0 for record in records):
        raise BenchFormatError(f"{suite.name} record has a non-positive calibration score")
    if previous is not None and previous.suite != current.suite:
        raise BenchFormatError(
            f"cannot compare a {current.suite} record with a {previous.suite} baseline"
        )
    baseline = {} if previous is None else {r.spec.name: r for r in previous.results}
    failures: List[str] = []
    for result in current.results:
        if suite.floor is not None:
            failures += suite.floor(result)
        prev = baseline.get(result.spec.name)
        if prev is not None and prev.spec == result.spec:
            calibration = (previous.calibration_score, current.calibration_score)
            failures += suite.gate(prev, result, calibration, threshold)
    return failures
