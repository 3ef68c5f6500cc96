"""Engine performance trajectory: measure, record, compare.

The simulator's hot paths are rewritten over time (sharded wait
queues, calendar event scheduling, incremental pool accounting), and
"it felt faster" is not evidence.  This module gives the repo a
tracked performance trajectory:

* a fixed **workload matrix** (:data:`WORKLOADS`) every measurement
  runs against, so numbers stay comparable across commits;
* a :class:`BenchRecord` JSON schema, appended per PR to
  ``BENCH_engine.json`` by ``scripts/bench_record.py`` — one record
  per engine-touching change, oldest first;
* a **calibration score** (a fixed pure-Python spin measured on the
  same interpreter just before the workloads) so records taken on
  different machines can be compared as ratios rather than raw
  jobs/sec;
* a regression gate (:func:`check_regression`) CI runs against the
  last committed record, failing when calibration-normalised
  throughput drops by more than a threshold or a same-spec workload's
  result digest changes;
* a per-workload **result digest** over the simulation's job records,
  making every timing run double as a correctness tripwire — an
  optimisation that changes scheduling decisions shows up as a digest
  flip even when it is fast.

Timings use the best (minimum) wall-clock of N rounds: the minimum is
the least noisy location statistic for "how fast can this code go"
on a machine with background load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ReproError
from .simulator.config import SimulationConfig

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadSpec",
    "WorkloadResult",
    "BenchRecord",
    "WORKLOADS",
    "QUICK_WORKLOADS",
    "calibrate",
    "result_digest",
    "measure_workload",
    "measure_matrix",
    "measure_table1",
    "record_to_dict",
    "record_from_dict",
    "load_history",
    "write_record",
    "check_regression",
    "IngestSpec",
    "IngestResult",
    "IngestRecord",
    "INGEST_WORKLOADS",
    "measure_ingest",
    "measure_ingest_matrix",
    "ingest_record_to_dict",
    "ingest_record_from_dict",
    "load_ingest_history",
    "write_ingest_record",
    "check_ingest_regression",
    "GridSpec",
    "GridBackendTiming",
    "GridResult",
    "GridRecord",
    "GRID_WORKLOADS",
    "QUICK_GRID_WORKLOADS",
    "measure_grid",
    "measure_grid_matrix",
    "grid_record_to_dict",
    "grid_record_from_dict",
    "load_grid_history",
    "write_grid_record",
    "check_grid_regression",
    "ChaosSpec",
    "ChaosScenarioResult",
    "ChaosRecord",
    "CHAOS_SCENARIOS",
    "measure_chaos",
    "measure_chaos_matrix",
    "chaos_record_to_dict",
    "chaos_record_from_dict",
    "load_chaos_history",
    "write_chaos_record",
    "check_chaos_regression",
]

#: Bumped when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


class BenchFormatError(ReproError):
    """A BENCH_*.json file does not match the expected schema."""


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


@dataclass(frozen=True)
class BenchRecord:
    """One point on the performance trajectory.

    Attributes:
        schema_version: layout version of this record.
        label: what was measured — normally the abbreviated git
            revision, set by ``scripts/bench_record.py``.
        recorded_at: ISO-8601 timestamp, or ``None`` in deterministic
            tests.
        calibration_score: iterations/second of the fixed calibration
            spin on the recording machine; divide ``jobs_per_second``
            by it to compare across machines.
        workloads: matrix measurements, in matrix order.
        table1_cold_seconds: wall-clock of the Table-1 campaign with a
            cold cache (``None`` when skipped).
        table1_warm_seconds: wall-clock of the cache-warm rerun
            (``None`` when skipped).
        notes: free-form context (host class, special conditions).
    """

    schema_version: int
    label: str
    recorded_at: Optional[str]
    calibration_score: float
    workloads: Tuple[WorkloadResult, ...]
    table1_cold_seconds: Optional[float] = None
    table1_warm_seconds: Optional[float] = None
    notes: str = ""


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


def measure_matrix(
    specs: Sequence[WorkloadSpec] = WORKLOADS,
    rounds: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[WorkloadResult, ...]:
    """Measure every cell of ``specs`` (matrix order preserved)."""
    results = []
    for spec in specs:
        if progress is not None:
            progress(f"measuring {spec.name} (scale={spec.scale}, rounds={rounds})")
        results.append(measure_workload(spec, rounds=rounds))
    return tuple(results)


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


# -- JSON round-trip -----------------------------------------------------------------


def record_to_dict(record: BenchRecord) -> Dict:
    """Plain-JSON form of one record (inverse of :func:`record_from_dict`)."""
    return {
        "schema_version": record.schema_version,
        "label": record.label,
        "recorded_at": record.recorded_at,
        "calibration_score": record.calibration_score,
        "table1_cold_seconds": record.table1_cold_seconds,
        "table1_warm_seconds": record.table1_warm_seconds,
        "notes": record.notes,
        "workloads": [
            {
                "name": w.spec.name,
                "scenario": w.spec.scenario,
                "scale": w.spec.scale,
                "policy": w.spec.policy,
                "seed": w.spec.seed,
                "faults": w.spec.faults,
                "jobs": w.jobs,
                "rounds": w.rounds,
                "best_wall_seconds": w.best_wall_seconds,
                "jobs_per_second": w.jobs_per_second,
                "result_digest": w.result_digest,
            }
            for w in record.workloads
        ],
    }


def record_from_dict(data: Dict) -> BenchRecord:
    """Parse one record dict, validating the schema."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise BenchFormatError(f"unsupported bench schema version {version!r}")
        workloads = tuple(
            WorkloadResult(
                spec=WorkloadSpec(
                    name=w["name"],
                    scenario=w["scenario"],
                    scale=w["scale"],
                    policy=w["policy"],
                    seed=w["seed"],
                    faults=w["faults"],
                ),
                jobs=w["jobs"],
                rounds=w["rounds"],
                best_wall_seconds=w["best_wall_seconds"],
                jobs_per_second=w["jobs_per_second"],
                result_digest=w["result_digest"],
            )
            for w in data["workloads"]
        )
        return BenchRecord(
            schema_version=version,
            label=data["label"],
            recorded_at=data["recorded_at"],
            calibration_score=data["calibration_score"],
            workloads=workloads,
            table1_cold_seconds=data.get("table1_cold_seconds"),
            table1_warm_seconds=data.get("table1_warm_seconds"),
            notes=data.get("notes", ""),
        )
    except KeyError as exc:
        raise BenchFormatError(f"bench record is missing field {exc}") from None


def load_history(path: str) -> List[BenchRecord]:
    """All records in ``path``, oldest first; ``[]`` when absent."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "records" not in data:
        raise BenchFormatError(f"{path}: expected an object with a 'records' list")
    return [record_from_dict(entry) for entry in data["records"]]


def write_record(path: str, record: BenchRecord, append: bool = True) -> int:
    """Persist ``record``; returns the new history length.

    With ``append`` (the default) the record joins the existing
    trajectory; without it the file is rewritten to hold only this
    record — useful for starting a fresh trajectory after a schema or
    matrix change.
    """
    history = load_history(path) if append else []
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


@dataclass(frozen=True)
class IngestRecord:
    """One point on the ingestion-performance trajectory."""

    schema_version: int
    label: str
    recorded_at: Optional[str]
    calibration_score: float
    ingests: Tuple[IngestResult, ...]
    notes: str = ""


#: The tracked ingestion matrix: the headline SWF cell (the CI gate's
#: fixture size) plus a smaller Google-CSV cell covering the
#: watermark-reorder path.
INGEST_WORKLOADS: Tuple[IngestSpec, ...] = (
    IngestSpec(name="swf_100k"),
    IngestSpec(name="google_30k", fmt="google", jobs=30_000),
)


def measure_ingest(
    spec: IngestSpec, fixture_dir: Optional[str] = None, rounds: int = 3
) -> IngestResult:
    """Generate the cell's fixture and replay it in a fresh subprocess.

    The subprocess runs ``python -m repro ingest <fixture> --json`` and
    reports its own wall clock and ``ru_maxrss``, so the number is the
    full pipeline's footprint with no contamination from this process.
    The replay runs ``rounds`` times (same methodology as the engine
    matrix): the *best* throughput round is recorded — scheduler noise
    only ever slows a run down — along with the *worst* peak RSS, the
    conservative direction for the memory gate.
    """
    import subprocess
    import sys as sys_module
    import tempfile

    from .workload.traces import generate_google_fixture, generate_swf_fixture

    own_dir = None
    if fixture_dir is None:
        own_dir = tempfile.mkdtemp(prefix="benchtrack-ingest-")
        fixture_dir = own_dir
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
        if own_dir is not None:
            import shutil

            shutil.rmtree(own_dir, ignore_errors=True)


def measure_ingest_matrix(
    specs: Sequence[IngestSpec] = INGEST_WORKLOADS,
    progress: Optional[Callable[[str], None]] = None,
    rounds: int = 3,
) -> Tuple[IngestResult, ...]:
    """Measure every ingestion cell (matrix order preserved)."""
    results = []
    for spec in specs:
        if progress is not None:
            progress(f"measuring ingest {spec.name} ({spec.fmt}, {spec.jobs} jobs)")
        results.append(measure_ingest(spec, rounds=rounds))
    return tuple(results)


def ingest_record_to_dict(record: IngestRecord) -> Dict:
    """Plain-JSON form (inverse of :func:`ingest_record_from_dict`)."""
    return {
        "schema_version": record.schema_version,
        "label": record.label,
        "recorded_at": record.recorded_at,
        "calibration_score": record.calibration_score,
        "notes": record.notes,
        "ingests": [
            {
                "name": r.spec.name,
                "fmt": r.spec.fmt,
                "fixture_jobs": r.spec.jobs,
                "seed": r.spec.seed,
                "scale": r.spec.scale,
                "utilization": r.spec.utilization,
                "jobs": r.jobs,
                "wall_seconds": r.wall_seconds,
                "jobs_per_second": r.jobs_per_second,
                "peak_rss_mb": r.peak_rss_mb,
            }
            for r in record.ingests
        ],
    }


def ingest_record_from_dict(data: Dict) -> IngestRecord:
    """Parse one ingestion record dict, validating the schema."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise BenchFormatError(f"unsupported bench schema version {version!r}")
        ingests = tuple(
            IngestResult(
                spec=IngestSpec(
                    name=r["name"],
                    fmt=r["fmt"],
                    jobs=r["fixture_jobs"],
                    seed=r["seed"],
                    scale=r["scale"],
                    utilization=r["utilization"],
                ),
                jobs=r["jobs"],
                wall_seconds=r["wall_seconds"],
                jobs_per_second=r["jobs_per_second"],
                peak_rss_mb=r["peak_rss_mb"],
            )
            for r in data["ingests"]
        )
        return IngestRecord(
            schema_version=version,
            label=data["label"],
            recorded_at=data["recorded_at"],
            calibration_score=data["calibration_score"],
            ingests=ingests,
            notes=data.get("notes", ""),
        )
    except KeyError as exc:
        raise BenchFormatError(f"ingest record is missing field {exc}") from None


def load_ingest_history(path: str) -> List[IngestRecord]:
    """All ingestion records in ``path``, oldest first; ``[]`` if absent."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "records" not in data:
        raise BenchFormatError(f"{path}: expected an object with a 'records' list")
    return [ingest_record_from_dict(entry) for entry in data["records"]]


def write_ingest_record(path: str, record: IngestRecord, append: bool = True) -> int:
    """Persist an ingestion record; returns the new history length."""
    history = load_ingest_history(path) if append else []
    history.append(record)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [ingest_record_to_dict(entry) for entry in history],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(history)


def check_ingest_regression(
    previous: IngestRecord,
    current: IngestRecord,
    threshold: float = 0.20,
    rss_slack: float = 0.25,
) -> List[str]:
    """Compare two ingestion records; returns failures (empty = pass).

    Two gates per cell (joined by name, compared only when the spec is
    unchanged):

    * calibration-normalised jobs/sec may not drop more than
      ``threshold`` — same rule as the engine matrix;
    * peak RSS may not grow more than ``rss_slack`` (plus a 16 MB
      absolute allowance for interpreter noise) — RSS is already
      machine-comparable, and creeping memory is exactly the
      regression streaming ingestion exists to prevent.
    """
    failures: List[str] = []
    if previous.calibration_score <= 0 or current.calibration_score <= 0:
        raise BenchFormatError("ingest record has a non-positive calibration score")
    prev_cells = {r.spec.name: r for r in previous.ingests}
    for result in current.ingests:
        prev = prev_cells.get(result.spec.name)
        if prev is None or prev.spec != result.spec:
            continue
        prev_norm = prev.jobs_per_second / previous.calibration_score
        cur_norm = result.jobs_per_second / current.calibration_score
        if prev_norm > 0:
            drop = 1.0 - cur_norm / prev_norm
            if drop > threshold:
                failures.append(
                    f"{result.spec.name}: normalised ingest throughput dropped "
                    f"{drop:.1%} (limit {threshold:.0%}; {prev_norm:.4f} -> "
                    f"{cur_norm:.4f} jobs/sec per calibration unit)"
                )
        rss_limit = prev.peak_rss_mb * (1.0 + rss_slack) + 16.0
        if result.peak_rss_mb > rss_limit:
            failures.append(
                f"{result.spec.name}: peak RSS grew from {prev.peak_rss_mb:.0f} MB "
                f"to {result.peak_rss_mb:.0f} MB (limit {rss_limit:.0f} MB) — "
                f"streaming ingestion is leaking memory"
            )
    return failures


# -- regression gate -----------------------------------------------------------------


def _normalised(record: BenchRecord) -> Dict[str, float]:
    """Workload name -> jobs/sec divided by the calibration score."""
    if record.calibration_score <= 0:
        raise BenchFormatError("record has a non-positive calibration score")
    return {
        w.spec.name: w.jobs_per_second / record.calibration_score
        for w in record.workloads
    }


def check_regression(
    previous: BenchRecord,
    current: BenchRecord,
    threshold: float = 0.20,
) -> List[str]:
    """Compare two records; returns human-readable failures (empty = pass).

    Workloads are joined by name and compared only when their spec
    (scenario, scale, policy, seed, faults) is unchanged; a renamed or
    re-scoped cell simply starts a new trajectory.  Two gates apply:

    * **digest** — the record digest must match ``previous`` exactly;
      a flip means the engine's behaviour changed, whatever the timings
      say.
    * **throughput** — calibration-normalised jobs/sec may not drop by
      more than ``threshold``.  Speedups never fail.
    """
    failures: List[str] = []
    prev_norm = _normalised(previous)
    cur_norm = _normalised(current)
    prev_workloads = {w.spec.name: w for w in previous.workloads}
    for cur_workload in current.workloads:
        name = cur_workload.spec.name
        prev_workload = prev_workloads.get(name)
        if prev_workload is None or prev_workload.spec != cur_workload.spec:
            continue
        before, after = prev_workload.result_digest, cur_workload.result_digest
        if before and after and before != after:
            failures.append(
                f"{name}: result digest changed ({before[:12]} -> {after[:12]}) "
                "— same-spec records no longer reproduce the committed run"
            )
        prev = prev_norm[name]
        if prev <= 0:
            continue
        cur = cur_norm[name]
        drop = 1.0 - cur / prev
        if drop > threshold:
            failures.append(
                f"{name}: normalised throughput dropped {drop:.1%} "
                f"(limit {threshold:.0%}; {prev:.4f} -> {cur:.4f} jobs/sec "
                f"per calibration unit)"
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


@dataclass(frozen=True)
class GridRecord:
    """One point on the fabric-performance trajectory."""

    schema_version: int
    label: str
    recorded_at: Optional[str]
    calibration_score: float
    available_cores: int
    grids: Tuple[GridResult, ...]
    notes: str = ""


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


def measure_grid_matrix(
    specs: Sequence[GridSpec] = GRID_WORKLOADS,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[GridResult, ...]:
    """Measure every grid cell (matrix order preserved)."""
    return tuple(measure_grid(spec, progress=progress) for spec in specs)


def grid_record_to_dict(record: GridRecord) -> Dict:
    """Plain-JSON form (inverse of :func:`grid_record_from_dict`)."""
    return {
        "schema_version": record.schema_version,
        "label": record.label,
        "recorded_at": record.recorded_at,
        "calibration_score": record.calibration_score,
        "available_cores": record.available_cores,
        "notes": record.notes,
        "grids": [
            {
                "name": g.spec.name,
                "preset": g.spec.preset,
                "scale": g.spec.scale,
                "seed": g.spec.seed,
                "cell_floor": g.spec.cell_floor,
                "worker_counts": list(g.spec.worker_counts),
                "cells": g.cells,
                "digest": g.digest,
                "warm_seconds": g.warm_seconds,
                "timings": [
                    {
                        "backend": t.backend,
                        "wall_seconds": t.wall_seconds,
                        "cells_per_second": t.cells_per_second,
                    }
                    for t in g.timings
                ],
            }
            for g in record.grids
        ],
    }


def grid_record_from_dict(data: Dict) -> GridRecord:
    """Parse one grid record dict, validating the schema."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise BenchFormatError(f"unsupported bench schema version {version!r}")
        grids = tuple(
            GridResult(
                spec=GridSpec(
                    name=g["name"],
                    preset=g["preset"],
                    scale=g["scale"],
                    seed=g["seed"],
                    cell_floor=g["cell_floor"],
                    worker_counts=tuple(g["worker_counts"]),
                ),
                cells=g["cells"],
                digest=g["digest"],
                timings=tuple(
                    GridBackendTiming(
                        backend=t["backend"],
                        wall_seconds=t["wall_seconds"],
                        cells_per_second=t["cells_per_second"],
                    )
                    for t in g["timings"]
                ),
                warm_seconds=g["warm_seconds"],
            )
            for g in data["grids"]
        )
        return GridRecord(
            schema_version=version,
            label=data["label"],
            recorded_at=data["recorded_at"],
            calibration_score=data["calibration_score"],
            available_cores=data["available_cores"],
            grids=grids,
            notes=data.get("notes", ""),
        )
    except KeyError as exc:
        raise BenchFormatError(f"grid record is missing field {exc}") from None


def load_grid_history(path: str) -> List[GridRecord]:
    """All grid records in ``path``, oldest first; ``[]`` when absent."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "records" not in data:
        raise BenchFormatError(f"{path}: expected an object with a 'records' list")
    return [grid_record_from_dict(entry) for entry in data["records"]]


def write_grid_record(path: str, record: GridRecord, append: bool = True) -> int:
    """Persist a grid record; returns the new history length."""
    history = load_grid_history(path) if append else []
    history.append(record)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [grid_record_to_dict(entry) for entry in history],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(history)


def check_grid_regression(
    previous: GridRecord,
    current: GridRecord,
    threshold: float = 0.20,
    min_speedup: float = GRID_MIN_SPEEDUP,
) -> List[str]:
    """Compare two grid records; returns failures (empty = pass).

    Three gates, per grid joined by name (skipped when the spec
    changed):

    * **digest** — the per-cell summary digest must match the
      committed record exactly; the fabric's entire value proposition
      is bit-identical sharding, so a flip is a hard failure whatever
      the timings say.
    * **throughput** — per backend joined by name, cells/sec may not
      drop more than ``threshold``.  CPU-bound grids
      (``cell_floor == 0``) are calibration-normalised like the engine
      matrix; padded grids compare raw cells/sec, which is already
      machine-comparable because the cells are wall-clock-bound.
    * **overlap** — padded grids must keep their 4-vs-1-worker speedup
      at or above ``min_speedup``; a collapse means the fabric started
      serialising its workers.
    """
    failures: List[str] = []
    if previous.calibration_score <= 0 or current.calibration_score <= 0:
        raise BenchFormatError("grid record has a non-positive calibration score")
    prev_grids = {g.spec.name: g for g in previous.grids}
    for grid in current.grids:
        prev = prev_grids.get(grid.spec.name)
        if prev is None or prev.spec != grid.spec:
            continue
        if prev.digest and grid.digest and prev.digest != grid.digest:
            failures.append(
                f"{grid.spec.name}: per-cell digest flipped "
                f"({prev.digest[:12]} -> {grid.digest[:12]}) — sharded "
                "results no longer reproduce the committed grid"
            )
        normalise = grid.spec.cell_floor == 0
        prev_timings = {t.backend: t for t in prev.timings}
        for timing in grid.timings:
            before = prev_timings.get(timing.backend)
            if before is None or before.cells_per_second <= 0:
                continue
            if normalise:
                prev_rate = before.cells_per_second / previous.calibration_score
                cur_rate = timing.cells_per_second / current.calibration_score
            else:
                prev_rate = before.cells_per_second
                cur_rate = timing.cells_per_second
            drop = 1.0 - cur_rate / prev_rate
            if drop > threshold:
                unit = "normalised " if normalise else ""
                failures.append(
                    f"{grid.spec.name}/{timing.backend}: {unit}cells/sec "
                    f"dropped {drop:.1%} (limit {threshold:.0%}; "
                    f"{prev_rate:.4f} -> {cur_rate:.4f})"
                )
        if grid.spec.cell_floor > 0:
            speedup = grid.speedup(4)
            if speedup is not None and speedup < min_speedup:
                failures.append(
                    f"{grid.spec.name}: subprocess:4 speedup fell to "
                    f"{speedup:.2f}x (floor {min_speedup:.1f}x) — fabric "
                    "workers are serialising"
                )
    return failures


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


@dataclass(frozen=True)
class ChaosRecord:
    """One point on the chaos-recovery trajectory."""

    schema_version: int
    label: str
    recorded_at: Optional[str]
    calibration_score: float
    available_cores: int
    scenarios: Tuple[ChaosScenarioResult, ...]
    notes: str = ""


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


def measure_chaos(
    spec: ChaosSpec,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosScenarioResult:
    """Run one chaos scenario and distil its report into a result.

    Violations are *recorded*, not raised — the regression gate turns
    them into failures so a bad run still lands in the operator's
    hands as a diffable record.
    """
    from .chaos import run_scenario

    if progress is not None:
        progress(f"chaos {spec.name}: seed {spec.seed}, {spec.workers} workers")
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


def measure_chaos_matrix(
    specs: Sequence[ChaosSpec] = CHAOS_SCENARIOS,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[ChaosScenarioResult, ...]:
    """Measure every tracked scenario (matrix order preserved)."""
    return tuple(measure_chaos(spec, progress=progress) for spec in specs)


def chaos_record_to_dict(record: ChaosRecord) -> Dict:
    """Plain-JSON form (inverse of :func:`chaos_record_from_dict`)."""
    return {
        "schema_version": record.schema_version,
        "label": record.label,
        "recorded_at": record.recorded_at,
        "calibration_score": record.calibration_score,
        "available_cores": record.available_cores,
        "notes": record.notes,
        "scenarios": [
            {
                "name": s.spec.name,
                "seed": s.spec.seed,
                "workers": s.spec.workers,
                "cells": s.cells,
                "wall_seconds": s.wall_seconds,
                "recovery_seconds": s.recovery_seconds,
                "restarts": s.restarts,
                "quarantined": s.quarantined,
                "cells_recovered": s.cells_recovered,
                "takeovers": s.takeovers,
                "swept_leases": s.swept_leases,
                "violations": list(s.violations),
            }
            for s in record.scenarios
        ],
    }


def chaos_record_from_dict(data: Dict) -> ChaosRecord:
    """Parse one chaos record dict, validating the schema."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise BenchFormatError(f"unsupported bench schema version {version!r}")
        scenarios = tuple(
            ChaosScenarioResult(
                spec=ChaosSpec(
                    name=s["name"], seed=s["seed"], workers=s["workers"]
                ),
                cells=s["cells"],
                wall_seconds=s["wall_seconds"],
                recovery_seconds=s["recovery_seconds"],
                restarts=s["restarts"],
                quarantined=s["quarantined"],
                cells_recovered=s["cells_recovered"],
                takeovers=s["takeovers"],
                swept_leases=s["swept_leases"],
                violations=tuple(s["violations"]),
            )
            for s in data["scenarios"]
        )
        return ChaosRecord(
            schema_version=version,
            label=data["label"],
            recorded_at=data["recorded_at"],
            calibration_score=data["calibration_score"],
            available_cores=data["available_cores"],
            scenarios=scenarios,
            notes=data.get("notes", ""),
        )
    except KeyError as exc:
        raise BenchFormatError(f"chaos record is missing field {exc}") from None


def load_chaos_history(path: str) -> List[ChaosRecord]:
    """All chaos records in ``path``, oldest first; ``[]`` when absent."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "records" not in data:
        raise BenchFormatError(f"{path}: expected an object with a 'records' list")
    return [chaos_record_from_dict(entry) for entry in data["records"]]


def write_chaos_record(path: str, record: ChaosRecord, append: bool = True) -> int:
    """Persist a chaos record; returns the new history length."""
    history = load_chaos_history(path) if append else []
    history.append(record)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [chaos_record_to_dict(entry) for entry in history],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(history)


def check_chaos_regression(
    previous: ChaosRecord,
    current: ChaosRecord,
    threshold: float = CHAOS_THRESHOLD,
    epsilon_seconds: float = CHAOS_EPSILON_SECONDS,
) -> List[str]:
    """Compare two chaos records; returns failures (empty = pass).

    Invariant violations in the *current* record always fail; the
    recovery clock is gated per scenario joined on (name, seed,
    workers) at ``previous * (1 + threshold) + epsilon_seconds``.
    """
    failures: List[str] = []
    for scenario in current.scenarios:
        for violation in scenario.violations:
            failures.append(
                f"{scenario.spec.name}: invariant violated — {violation}"
            )
    prev_scenarios = {s.spec: s for s in previous.scenarios}
    for scenario in current.scenarios:
        if scenario.violations:
            continue
        prev = prev_scenarios.get(scenario.spec)
        if prev is None or prev.violations:
            continue
        allowed = prev.recovery_seconds * (1.0 + threshold) + epsilon_seconds
        if scenario.recovery_seconds > allowed:
            failures.append(
                f"{scenario.spec.name}: recovery took "
                f"{scenario.recovery_seconds:.2f}s, over the "
                f"{allowed:.2f}s limit ({prev.recovery_seconds:.2f}s "
                f"baseline + {threshold:.0%} + {epsilon_seconds:.2f}s slack)"
            )
    return failures
