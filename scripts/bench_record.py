#!/usr/bin/env python
"""Measure a performance suite and maintain its BENCH_*.json trajectory.

Default run — measure the full engine matrix plus the Table-1
cold/warm campaign and append one record to BENCH_engine.json:

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

The overlap floor and the invariant check apply even when the
trajectory file holds no baseline yet.

A written point is the median of five measurements of the matrix:
the run whose cells' calibration-normalised rates have the median
geometric mean is kept whole, calibration score included, and the
point stores each cell's min/max rate across the runs.  ``--check``
measures once and compares against the last committed point.  The
chaos suite has no rate and records one run.

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


#: Matrix measurements behind one written point (the median is kept).
RECORD_RUNS = 5


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


def report_engine(w, args) -> None:
    print(
        f"  {w.spec.name}: {w.jobs} jobs in {w.best_wall_seconds:.2f}s "
        f"(best of {w.rounds}) = {w.jobs_per_second:,.0f} jobs/sec "
        f"[{w.result_digest[:12]}]"
    )


def report_ingest(r, args) -> None:
    print(
        f"  {r.spec.name}: {r.jobs} jobs in {r.wall_seconds:.2f}s "
        f"(best of {args.rounds}) = {r.jobs_per_second:,.0f} jobs/sec, "
        f"peak RSS {r.peak_rss_mb:.0f} MB"
    )


def report_grid(g, args) -> None:
    floor = f", floor {g.spec.cell_floor}s" if g.spec.cell_floor else ""
    print(f"  {g.spec.name}: {g.cells} cells{floor} [{g.digest[:12]}]")
    for t in g.timings:
        print(f"    {t.backend}: {t.wall_seconds:.2f}s = {t.cells_per_second:.2f} cells/sec")
    speedup = g.speedup(4)
    if speedup is not None:
        print(f"    subprocess:4 vs :1 speedup: {speedup:.2f}x")
    print(f"    warm rerun: {g.warm_seconds:.2f}s")


def report_chaos(s, args) -> None:
    verdict = "OK" if not s.violations else "VIOLATED"
    print(
        f"  {s.spec.name}: {verdict} — {s.cells} cells in "
        f"{s.wall_seconds:.2f}s, recovery {s.recovery_seconds:.2f}s, "
        f"{s.restarts} restart(s), {s.quarantined} quarantined, "
        f"{s.cells_recovered} recovered, {s.takeovers} takeover(s)"
    )
    for violation in s.violations:
        print(f"    VIOLATION: {violation}", file=sys.stderr)


REPORTERS = {
    "engine": report_engine,
    "ingest": report_ingest,
    "grid": report_grid,
    "chaos": report_chaos,
}


def measure_once(suite: benchtrack.Suite, args):
    """Calibrate, then measure the matrix once: ``(calibration, results)``."""
    print("calibrating interpreter ...", flush=True)
    calibration = benchtrack.calibrate()
    print(
        f"calibration score: {calibration:,.0f} iterations/sec "
        f"({os.cpu_count() or 1} core(s) available)"
    )
    results = []
    for spec in suite.quick if args.quick else suite.matrix:
        print(f"measuring {suite.name} {spec}", flush=True)
        results.append(suite.measure(spec, args.rounds, lambda msg: print(msg, flush=True)))
    return calibration, results


def run(suite: benchtrack.Suite, args) -> int:
    """Calibrate, measure, report, then gate against or append to the file."""
    output = args.output or suite.path
    threshold = suite.threshold if args.threshold is None else args.threshold
    cores = os.cpu_count() or 1

    runs = 1 if args.check or suite.rate is None else RECORD_RUNS
    measured = []
    for index in range(runs):
        if runs > 1:
            print(f"== run {index + 1}/{runs} ==", flush=True)
        measured.append(measure_once(suite, args))
    spread = None
    if runs > 1:
        calibration, results, spread = benchtrack.median_of_runs(suite, measured)
        print(f"median of {runs} runs (calibration score {calibration:,.0f}):")
    else:
        calibration, results = measured[0]
    for result in results:
        REPORTERS[suite.name](result, args)
        if spread is not None:
            cell = spread[result.spec.name]
            print(f"    rate over {runs} runs: {cell['min']:.4g} .. {cell['max']:.4g}")

    header = {}
    if "available_cores" in suite.header:
        header["available_cores"] = cores
    if "table1_cold_seconds" in suite.header and not args.skip_table1:
        print("timing Table-1 campaign (cold, then cache-warm) ...", flush=True)
        cold, warm = benchtrack.measure_table1()
        print(f"  table1: cold {cold:.2f}s, warm {warm:.2f}s")
        header.update(table1_cold_seconds=cold, table1_warm_seconds=warm)

    record = benchtrack.Record(
        suite=suite.name,
        label=args.label or git_label(),
        recorded_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        calibration_score=calibration,
        results=tuple(results),
        notes=args.notes,
        spread=spread,
        **header,
    )

    if args.check:
        history = benchtrack.load_history(output)
        previous = history[-1] if history else None
        failures = benchtrack.check_regression(previous, record, threshold=threshold)
        baseline = (
            f"record {previous.label!r}" if previous is not None
            else f"no baseline (no committed trajectory in {output})"
        )
        if failures:
            print(f"{suite.name} regression vs {baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"{suite.name} OK vs {baseline} (threshold {threshold:.0%})")
        return 0

    count = benchtrack.write_record(output, record, append=not args.overwrite)
    print(f"wrote {suite.name} record {record.label!r} to {output} ({count} total)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None,
        help="trajectory file to read/write (default: the suite's own "
             "BENCH_<suite>.json)",
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
        "--threshold", type=float, default=None,
        help="allowed fractional regression for --check (default: the "
             f"suite's own — {benchtrack.SUITES['chaos'].threshold} for "
             f"--chaos, {benchtrack.SUITES['engine'].threshold} otherwise)",
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

    chosen = [name for name in ("ingest", "grid", "chaos") if getattr(args, name)]
    if len(chosen) > 1:
        parser.error("--ingest, --grid and --chaos are mutually exclusive")
    return run(benchtrack.SUITES[chosen[0] if chosen else "engine"], args)


if __name__ == "__main__":
    sys.exit(main())
