#!/usr/bin/env python
"""Measure a performance suite and maintain its BENCH_*.json trajectory.

Default run — measure the full engine matrix plus the Table-1
cold/warm campaign and append one record to BENCH_engine.json:

    PYTHONPATH=src python scripts/bench_record.py

CI gate — time the quick matrix against the baseline *code* on this
host, without writing anything.  The baseline is the last commit that
changed BENCH_engine.json, checked out into a scratch ``git worktree``
(local git only, so the clone needs its full history).  Baseline and
tree each get one fresh process, and the two simulate every cell back
to back, the side going first alternating, seven times over; a cell
fails when the median of its paired tree/baseline jobs/sec ratios
drops more than 20%, or when a same-spec cell's result digest differs
from the last committed record.  Both trees' ``call_census.py`` calls
per job are reported:

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
point stores each cell's min/max rate across the runs; an engine point
also stores the census's calls per job.  ``--check`` on the other
suites measures once and compares against the last committed point.
The chaos suite has no rate and records one run.

The file format and comparison rules live in :mod:`repro.benchtrack`;
this script only adds argument parsing, git labelling and reporting.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import benchtrack  # noqa: E402


#: Matrix measurements behind one written point (the median is kept).
RECORD_RUNS = 5

#: Baseline/tree pairs behind one engine ``--check``; odd, so each
#: cell's median is one pair's ratio.
CHECK_PAIRS = 7

#: The repository this script belongs to: the tree an engine check times.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CENSUS = os.path.join(REPO, "scripts", "call_census.py")

#: Runs in a fresh process whose ``PYTHONPATH`` is one tree's ``src``:
#: builds the given engine cells with that tree's own benchtrack, then
#: simulates cell ``i`` once for each ``i`` read from stdin and prints
#: ``[jobs, wall_seconds, result_digest]`` as one JSON line.
_CELL_SERVER = """
import json, os, sys, time
import repro
from repro import benchtrack, run_simulation
specs, src = json.loads(sys.argv[1])
if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"imported repro from {repro.__file__}, not from {src}")
cells = [benchtrack._build_workload(benchtrack.WorkloadSpec(**f)) for f in specs]
for line in sys.stdin:
    scenario, policy, config = cells[int(line)]
    start = time.perf_counter()
    result = run_simulation(scenario.trace, scenario.cluster, policy=policy, config=config)
    wall = time.perf_counter() - start
    print(json.dumps([len(result.records), wall, benchtrack.result_digest(result)]), flush=True)
"""


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


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.strip()


def baseline_commit(path: str) -> str:
    """The last commit that changed ``path``: the code its last point measured.

    Raises SystemExit in a shallow clone, whose truncated history would
    name a commit that never recorded a point.
    """
    try:
        if _git("rev-parse", "--is-shallow-repository") == "true":
            raise SystemExit(
                "error: the engine --check needs the full git history "
                "(a shallow clone; fetch with fetch-depth: 0)"
            )
        commit = _git("log", "-1", "--format=%H", "--", path)
    except (OSError, subprocess.CalledProcessError) as exc:
        raise SystemExit(f"error: cannot read the git history of {path}: {exc}")
    if not commit:
        raise SystemExit(f"error: no commit has recorded {path}; nothing to compare with")
    return commit


@contextlib.contextmanager
def checkout(commit: str):
    """Yield the root of ``commit`` checked out in a scratch git worktree."""
    scratch = tempfile.mkdtemp(prefix="bench-baseline-")
    root = os.path.join(scratch, "tree")
    _git("worktree", "add", "--detach", "--quiet", root, commit)
    try:
        yield root
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", root],
            cwd=REPO, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO, capture_output=True)


def _tree_env(root: str) -> dict:
    """Environment importing ``repro`` from ``root``'s ``src``; a fixed hash
    seed gives both trees the same dict and set layouts."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")


class CellServer:
    """A fresh process that simulates engine cells with one tree's code."""

    def __init__(self, root: str, specs) -> None:
        self.root = root
        self.specs = tuple(specs)
        argument = json.dumps([[asdict(spec) for spec in self.specs],
                               os.path.join(root, "src")])
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _CELL_SERVER, argument],
            env=_tree_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, index: int) -> benchtrack.WorkloadResult:
        """Simulate cell ``index`` once; its one-round result."""
        self._proc.stdin.write(f"{index}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: the cell process for {self.root} died")
        jobs, wall, digest = json.loads(line)
        return benchtrack.WorkloadResult(
            spec=self.specs[index], jobs=jobs, rounds=1, best_wall_seconds=wall,
            jobs_per_second=jobs / wall if wall > 0 else 0.0, result_digest=digest,
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def paired_runs(base_root: str, tree_root: str, specs, pairs: int):
    """``pairs`` of one-round matrix runs, baseline and tree interleaved.

    Each tree gets one fresh process.  After one unpaired warm-up run of
    every cell, the two processes simulate each cell back to back, the
    side that goes first alternating, so a slow spell on the host lands
    on both sides of a pair.
    """
    servers = {"baseline": CellServer(base_root, specs), "tree": CellServer(tree_root, specs)}
    try:
        for server in servers.values():
            for index in range(len(specs)):
                server.run(index)
        runs = []
        for number in range(pairs):
            measured = {"baseline": [], "tree": []}
            for index in range(len(specs)):
                sides = ["baseline", "tree"] if (number + index) % 2 == 0 else ["tree", "baseline"]
                for side in sides:
                    measured[side].append(servers[side].run(index))
            runs.append((tuple(measured["baseline"]), tuple(measured["tree"])))
        return runs
    finally:
        for server in servers.values():
            server.close()


def calls_per_job(root: str) -> float:
    """``call_census.py`` calls per job (its defaults) of ``root``'s code."""
    out = subprocess.run(
        [sys.executable, CENSUS, "--top", "0"],
        env=_tree_env(root), capture_output=True, text=True, check=True,
    )
    first = out.stdout.splitlines()[0]
    return float(first.rsplit("calls_per_job=", 1)[1])


def check_engine(suite: benchtrack.Suite, args, output: str, threshold: float) -> int:
    """Gate the tree against the baseline code on interleaved paired runs."""
    specs = suite.quick if args.quick else suite.matrix
    commit = baseline_commit(output)
    history = benchtrack.load_history(output)
    previous = history[-1] if history else None
    print(
        f"baseline: {commit[:12]} (the last commit to change {output}); "
        f"{CHECK_PAIRS} interleaved pairs",
        flush=True,
    )
    with checkout(commit) as base:
        pairs = paired_runs(base, REPO, specs, CHECK_PAIRS)
        base_calls = calls_per_job(base)
    tree_calls = calls_per_job(REPO)
    ratios = benchtrack.paired_ratios(pairs)
    for result in pairs[-1][1]:
        cell = ratios.get(result.spec.name, [])
        median = f"{statistics.median(cell):.3f}" if cell else "-"
        print(
            f"  {result.spec.name}: tree/baseline median {median} "
            f"(pairs {' '.join(f'{r:.2f}' for r in cell)}) "
            f"[{result.result_digest[:12]}]"
        )
    print(f"  calls per job: baseline {base_calls:.1f}, tree {tree_calls:.1f}")
    label = f"record {previous.label!r}" if previous is not None else "no committed record"
    failures = benchtrack.check_paired(previous, pairs, threshold)
    if failures:
        print(f"engine regression vs {commit[:12]} (digests vs {label}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"engine OK vs {commit[:12]} (digests vs {label}; threshold {threshold:.0%})")
    return 0


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
    if args.check and suite.name == "engine":
        return check_engine(suite, args, output, threshold)

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
    if suite.name == "engine":
        header["calls_per_job"] = calls_per_job(REPO)
        print(f"  calls per job: {header['calls_per_job']:.1f}")

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
        help="timing rounds per workload; the best is recorded (default: 3; "
             "an engine --check times one round per pair instead)",
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
        help="exit nonzero on regression without writing the trajectory "
             "file: the engine suite times the tree against the last "
             "recorded commit's code in alternating pairs, the others "
             "compare with the last committed record",
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
