"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload suspension_heavy --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` spends half the time untraced and half under the span
probes, and reports the per-layer metrics plus ``trace.overhead_ratio``;
the spans are written to ``.perfbench_out/``.  The metric names and units
come from ``BENCHMARK.json``.  A ``perfbench context`` line records the
host (calibration score, CPUs, Python) and the raw, unscaled rates; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def machine_context() -> dict:
    """What a number needs next to it to be compared across hosts."""
    from repro.benchtrack import calibrate

    return {
        "calibration_score": calibrate(rounds=2),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC / 'repro'}; run from a full checkout")
    try:
        end_to_end, per_layer, names = _metric_specs()
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return _fail(f"imported repro from {repro.__file__}, not from {SRC}")

    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS, measure

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup = workload.setup()
        context = machine_context()
        recorder = SpanRecorder() if args.trace else None
        plain = measure(workload, args.seconds / 2.0 if args.trace else args.seconds)
        traced = measure(workload, args.seconds / 2.0, recorder) if args.trace else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain.reps + (traced.reps if traced else [])
    attempted = sum(rep.cells for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for rep in reps:
        for problem in rep.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

    jobs_per_s, cells_per_s = plain.rates(workload.scale_reps)
    raw_jobs_per_s, raw_cells_per_s = plain.rates(scaled=False)
    setup_s = statistics.median(setup.walls())
    context.update(
        workload=args.workload,
        seed=args.seed,
        reps=len(plain.reps),
        traced_reps=len(traced.reps) if traced else 0,
        reference_checks=workload.reference_hits,
        host_speed=plain.speed(),
        raw_jobs_per_s=raw_jobs_per_s,
        raw_cells_per_s=raw_cells_per_s,
        raw_setup_s=statistics.median(setup.walls(scaled=False)),
        setup_samples=[rep.wall for rep in setup.reps],
        samples=[[rep.input, rep.wall, rep.jobs, rep.cells] for rep in plain.reps],
        scores=plain.scores,
    )
    print("perfbench context " + json.dumps(context, sort_keys=True))

    if args.trace:
        values = {spec["name"]: 0.0 for spec in per_layer}
        values.update(workload.layer_metrics(recorder.totals(), traced.reps))
        values[workload.setup_metric] = setup_s
        values["trace.overhead_ratio"] = (
            traced.rates(workload.scale_reps)[1] / cells_per_s
        )
        values["error_rate"] = failed / attempted
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(
            OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json",
            meta=dict(context, metrics=values),
        )
        specs = per_layer
    else:
        values = {
            "jobs_per_s": jobs_per_s,
            "cells_per_s": cells_per_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        specs = end_to_end
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
