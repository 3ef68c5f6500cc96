#!/usr/bin/env python
"""Measure engine throughput and maintain the BENCH_engine.json trajectory.

Default run — measure the full matrix plus the Table-1 cold/warm
campaign and append one record to the trajectory:

    PYTHONPATH=src python scripts/bench_record.py

CI gate — measure the quick matrix and fail when calibration-normalised
throughput regresses more than 20%, or a same-spec workload's result
digest changes, against the last committed record, without writing
anything:

    PYTHONPATH=src python scripts/bench_record.py --check --quick

Streaming-ingestion trajectory (BENCH_ingest.json) — each cell writes a
synthetic fixture and replays it in a fresh subprocess, recording
jobs/sec, wall clock and peak RSS; the check additionally gates RSS
growth:

    PYTHONPATH=src python scripts/bench_record.py --ingest
    PYTHONPATH=src python scripts/bench_record.py --ingest --check

Distributed-fabric trajectory (BENCH_grid.json) — run the experiment
grids through the serial baseline and 1/2/4-subprocess-worker fleets,
recording cells/sec per backend, the warm-cache rerun and a per-cell
digest; the check gates digest flips, throughput drops and the padded
grid's 4-worker overlap speedup:

    PYTHONPATH=src python scripts/bench_record.py --grid
    PYTHONPATH=src python scripts/bench_record.py --grid --check --quick

Chaos-recovery trajectory (BENCH_chaos.json) — replay the seeded fault
scenarios against a live supervised fleet, recording the recovery
clock and the invariant audit's counters; the check hard-fails on any
invariant violation and gates recovery-time regressions:

    PYTHONPATH=src python scripts/bench_record.py --chaos
    PYTHONPATH=src python scripts/bench_record.py --chaos --check

The file format and comparison rules live in :mod:`repro.benchtrack`;
this script only adds argument parsing, git labelling and reporting.
"""

from __future__ import annotations

import argparse
import datetime
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import benchtrack  # noqa: E402


def git_label() -> str:
    """Abbreviated git revision of the working tree, or 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_ingest(args) -> int:
    """Measure the ingestion matrix; write or gate BENCH_ingest.json."""
    import datetime as datetime_module

    print("calibrating interpreter ...", flush=True)
    calibration = benchtrack.calibrate()
    print(f"calibration score: {calibration:,.0f} iterations/sec")

    ingests = benchtrack.measure_ingest_matrix(
        progress=lambda msg: print(msg, flush=True), rounds=args.rounds
    )
    for r in ingests:
        print(
            f"  {r.spec.name}: {r.jobs} jobs in {r.wall_seconds:.2f}s "
            f"(best of {args.rounds}) = {r.jobs_per_second:,.0f} jobs/sec, "
            f"peak RSS {r.peak_rss_mb:.0f} MB"
        )

    record = benchtrack.IngestRecord(
        schema_version=benchtrack.SCHEMA_VERSION,
        label=args.label or git_label(),
        recorded_at=datetime_module.datetime.now(
            datetime_module.timezone.utc
        ).isoformat(timespec="seconds"),
        calibration_score=calibration,
        ingests=ingests,
        notes=args.notes,
    )

    if args.check:
        history = benchtrack.load_ingest_history(args.output)
        if not history:
            print(f"no committed trajectory in {args.output}; nothing to gate")
            return 0
        previous = history[-1]
        failures = benchtrack.check_ingest_regression(
            previous, record, threshold=args.threshold
        )
        if failures:
            print(
                f"ingestion regression vs record {previous.label!r}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"ingestion OK vs record {previous.label!r} "
            f"(threshold {args.threshold:.0%})"
        )
        return 0

    count = benchtrack.write_ingest_record(
        args.output, record, append=not args.overwrite
    )
    print(f"wrote ingest record {record.label!r} to {args.output} ({count} total)")
    return 0


def run_grid(args) -> int:
    """Measure the fabric grid matrix; write or gate BENCH_grid.json."""
    specs = (
        benchtrack.QUICK_GRID_WORKLOADS if args.quick
        else benchtrack.GRID_WORKLOADS
    )

    print("calibrating interpreter ...", flush=True)
    calibration = benchtrack.calibrate()
    cores = os.cpu_count() or 1
    print(
        f"calibration score: {calibration:,.0f} iterations/sec "
        f"({cores} core(s) available)"
    )

    grids = benchtrack.measure_grid_matrix(
        specs, progress=lambda msg: print(msg, flush=True)
    )
    for g in grids:
        floor = f", floor {g.spec.cell_floor}s" if g.spec.cell_floor else ""
        print(f"  {g.spec.name}: {g.cells} cells{floor} [{g.digest[:12]}]")
        for t in g.timings:
            print(
                f"    {t.backend}: {t.wall_seconds:.2f}s "
                f"= {t.cells_per_second:.2f} cells/sec"
            )
        speedup = g.speedup(4)
        if speedup is not None:
            print(f"    subprocess:4 vs :1 speedup: {speedup:.2f}x")
        print(f"    warm rerun: {g.warm_seconds:.2f}s")

    record = benchtrack.GridRecord(
        schema_version=benchtrack.SCHEMA_VERSION,
        label=args.label or git_label(),
        recorded_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        calibration_score=calibration,
        available_cores=cores,
        grids=grids,
        notes=args.notes,
    )

    if args.check:
        history = benchtrack.load_grid_history(args.output)
        if not history:
            print(f"no committed trajectory in {args.output}; nothing to gate")
            return 0
        previous = history[-1]
        failures = benchtrack.check_grid_regression(
            previous, record, threshold=args.threshold
        )
        if failures:
            print(
                f"fabric regression vs record {previous.label!r}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"fabric OK vs record {previous.label!r} "
            f"(threshold {args.threshold:.0%})"
        )
        return 0

    count = benchtrack.write_grid_record(
        args.output, record, append=not args.overwrite
    )
    print(f"wrote grid record {record.label!r} to {args.output} ({count} total)")
    return 0


def run_chaos(args) -> int:
    """Measure the chaos scenarios; write or gate BENCH_chaos.json."""
    print("calibrating interpreter ...", flush=True)
    calibration = benchtrack.calibrate()
    cores = os.cpu_count() or 1
    print(
        f"calibration score: {calibration:,.0f} iterations/sec "
        f"({cores} core(s) available)"
    )

    scenarios = benchtrack.measure_chaos_matrix(
        progress=lambda msg: print(msg, flush=True)
    )
    for s in scenarios:
        verdict = "OK" if not s.violations else "VIOLATED"
        print(
            f"  {s.spec.name}: {verdict} — {s.cells} cells in "
            f"{s.wall_seconds:.2f}s, recovery {s.recovery_seconds:.2f}s, "
            f"{s.restarts} restart(s), {s.quarantined} quarantined, "
            f"{s.cells_recovered} recovered, {s.takeovers} takeover(s)"
        )
        for violation in s.violations:
            print(f"    VIOLATION: {violation}", file=sys.stderr)

    record = benchtrack.ChaosRecord(
        schema_version=benchtrack.SCHEMA_VERSION,
        label=args.label or git_label(),
        recorded_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        calibration_score=calibration,
        available_cores=cores,
        scenarios=scenarios,
        notes=args.notes,
    )

    if args.check:
        history = benchtrack.load_chaos_history(args.output)
        if not history:
            # Still hard-fail on violations: a chaos run that broke an
            # invariant is wrong even with no baseline to compare to.
            empty = benchtrack.ChaosRecord(
                schema_version=benchtrack.SCHEMA_VERSION,
                label="(none)", recorded_at=None,
                calibration_score=calibration, available_cores=cores,
                scenarios=(),
            )
            failures = benchtrack.check_chaos_regression(empty, record)
            if failures:
                print("chaos invariant violations:", file=sys.stderr)
                for failure in failures:
                    print(f"  {failure}", file=sys.stderr)
                return 1
            print(f"no committed trajectory in {args.output}; nothing to gate")
            return 0
        previous = history[-1]
        failures = benchtrack.check_chaos_regression(
            previous, record, threshold=args.threshold
        )
        if failures:
            print(
                f"chaos regression vs record {previous.label!r}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"chaos OK vs record {previous.label!r} "
            f"(threshold {args.threshold:.0%})"
        )
        return 0

    count = benchtrack.write_chaos_record(
        args.output, record, append=not args.overwrite
    )
    print(f"wrote chaos record {record.label!r} to {args.output} ({count} total)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_engine.json",
        help="trajectory file to read/write (default: %(default)s)",
    )
    parser.add_argument(
        "--label", default=None,
        help="record label (default: abbreviated git revision)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="timing rounds per workload; the best is recorded (default: 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="measure only the reduced-scale matrix cells",
    )
    parser.add_argument(
        "--skip-table1", action="store_true",
        help="skip the Table-1 cold/warm campaign timing",
    )
    parser.add_argument(
        "--overwrite", action="store_true",
        help="start a fresh trajectory instead of appending",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the last committed record and exit nonzero "
             "on regression; does not write the trajectory file",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="allowed fractional drop in normalised throughput for "
             "--check (default: %(default)s)",
    )
    parser.add_argument(
        "--notes", default="", help="free-form note stored in the record",
    )
    parser.add_argument(
        "--ingest", action="store_true",
        help="measure the streaming-ingestion matrix instead of the engine "
             "matrix (trajectory file defaults to BENCH_ingest.json)",
    )
    parser.add_argument(
        "--grid", action="store_true",
        help="measure the distributed-fabric grid matrix instead of the "
             "engine matrix (trajectory file defaults to BENCH_grid.json; "
             "--quick keeps only the padded scheduling-bound grid)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="measure the chaos-recovery scenarios instead of the engine "
             "matrix (trajectory file defaults to BENCH_chaos.json; the "
             "check hard-fails on invariant violations)",
    )
    args = parser.parse_args(argv)

    if sum((args.ingest, args.grid, args.chaos)) > 1:
        parser.error("--ingest, --grid and --chaos are mutually exclusive")
    if args.ingest:
        if args.output == "BENCH_engine.json":
            args.output = "BENCH_ingest.json"
        return run_ingest(args)
    if args.grid:
        if args.output == "BENCH_engine.json":
            args.output = "BENCH_grid.json"
        return run_grid(args)
    if args.chaos:
        if args.output == "BENCH_engine.json":
            args.output = "BENCH_chaos.json"
        if args.threshold == 0.20:
            args.threshold = benchtrack.CHAOS_THRESHOLD
        return run_chaos(args)

    specs = benchtrack.QUICK_WORKLOADS if args.quick else benchtrack.WORKLOADS

    print("calibrating interpreter ...", flush=True)
    calibration = benchtrack.calibrate()
    print(f"calibration score: {calibration:,.0f} iterations/sec")

    workloads = benchtrack.measure_matrix(
        specs, rounds=args.rounds, progress=lambda msg: print(msg, flush=True)
    )
    for w in workloads:
        print(
            f"  {w.spec.name}: {w.jobs} jobs in {w.best_wall_seconds:.2f}s "
            f"(best of {w.rounds}) = {w.jobs_per_second:,.0f} jobs/sec "
            f"[{w.result_digest[:12]}]"
        )

    table1_cold = table1_warm = None
    if not args.skip_table1:
        print("timing Table-1 campaign (cold, then cache-warm) ...", flush=True)
        table1_cold, table1_warm = benchtrack.measure_table1()
        print(f"  table1: cold {table1_cold:.2f}s, warm {table1_warm:.2f}s")

    record = benchtrack.BenchRecord(
        schema_version=benchtrack.SCHEMA_VERSION,
        label=args.label or git_label(),
        recorded_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        calibration_score=calibration,
        workloads=workloads,
        table1_cold_seconds=table1_cold,
        table1_warm_seconds=table1_warm,
        notes=args.notes,
    )

    if args.check:
        history = benchtrack.load_history(args.output)
        if not history:
            print(f"no committed trajectory in {args.output}; nothing to gate")
            return 0
        previous = history[-1]
        failures = benchtrack.check_regression(
            previous, record, threshold=args.threshold
        )
        if failures:
            print(
                f"engine regression vs record {previous.label!r}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"throughput and digests OK vs record {previous.label!r} "
            f"(threshold {args.threshold:.0%})"
        )
        return 0

    count = benchtrack.write_record(args.output, record, append=not args.overwrite)
    print(f"wrote record {record.label!r} to {args.output} ({count} total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
