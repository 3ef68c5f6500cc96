"""Command-line interface.

Usage (installed as ``repro``, or ``python -m repro``)::

    repro table 1                 # reproduce paper Table 1
    repro table all               # all five tables + high-suspension
    repro figure 2                # reproduce paper Figure 2
    repro policies list           # registered policies and selectors
    repro run --policy ResSusUtil --scenario high-load --scale 0.1
    repro run --policy dfrs:share=0.5,floor=0.1 --scenario high-suspension
    repro run --policy "migration_cost:transfer_minutes=5" --scenario high-load
    repro run --scenario smoke --telemetry-dir out/telemetry --profile   # + layer table
    repro run --policy ResSusUtil --machine-mtbf 4000 --machine-mttr 120
    repro table 2 --policy NoRes --policy dfrs:share=0.5   # custom strategy set
    repro faults --mtbf 2000 --mtbf 8000    # churn sweep per policy
    repro run-grid --preset fault-sweep --backend local:4 --no-cache   # local fleet
    repro run-grid --preset fault-sweep --backend subprocess:4 --cache-dir /shared/cache
    repro run-grid --preset smoke --policy NoRes --policy dfrs:share=0.5
    repro run-grid --preset fault-sweep --shard-id 0 --num-shards 4   # static shard
    repro cache stats ~/.cache/repro
    repro cache gc ~/.cache/repro --max-bytes 512M --max-age 7d
    repro stats out/telemetry     # render the telemetry snapshot
    repro generate-trace out.jsonl --scenario busy-week --scale 0.1
    repro analyze-trace out.jsonl
    repro make-fixture fixture.swf --jobs 100000 --seed 1
    repro ingest fixture.swf --rss-ceiling-mb 512 --json
    repro run --trace fixture.swf --policy ResSusUtil
    repro table all --workers 4 --cache-dir ~/.cache/repro --progress

Real-trace ingestion (``make-fixture`` / ``ingest`` / ``run --trace``)
streams SWF or Google cluster-trace logs through the engine in constant
memory; see ``docs/traces.md``.

``--policy`` flags take registry spec strings — ``name`` or
``name:key=value,...`` (``repro policies list`` shows what is
registered; grammar and plugin guide in ``docs/policies.md``).

All experiment commands honour ``--scale`` and ``--seed`` (and the
``REPRO_SCALE`` / ``REPRO_SEED`` environment variables).  The ``table``
and ``figure`` commands additionally honour ``--workers`` (a supervised
fleet of local worker processes; results are bit-identical to serial
runs), ``--cache-dir``
(content-addressed on-disk result cache; defaults to
``REPRO_CACHE_DIR``), ``--no-cache``, ``--progress`` (per-cell
heartbeat on stderr) and ``--telemetry-dir`` (per-cell execution
telemetry as ``cells.jsonl``); see ``docs/performance.md`` and
``docs/observability.md``.  An interrupted grid resumes by running
again with the same ``--cache-dir``; ``run-grid`` ends with a
``digest`` line that is equal for bit-identical results.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .errors import ReproError
from .metrics.report import render_table, render_waste_components
from .metrics.summary import summarize
from .policies import policy_from_spec
from .schedulers.initial import INITIAL_SCHEDULER_NAMES, initial_scheduler_from_name
from .simulator.config import SimulationConfig
from .simulator.simulation import run_simulation
from .validation import EXPERIMENTS, run_experiments, validate_all_claims
from .workload import io as workload_io
from .workload.scenarios import busy_week, high_load, high_suspension, smoke, year

__all__ = ["main", "build_parser"]

_SCENARIOS: Dict[str, Callable] = {
    "busy-week": busy_week,
    "high-load": high_load,
    "high-suspension": high_suspension,
    "year": year,
    "smoke": lambda scale=None, seed=7: smoke(seed),
}

_TABLE_KEYS = [key for key, experiment in EXPERIMENTS.items() if experiment.is_table]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Feasibility of Dynamic Rescheduling on "
            "the Intel Distributed Computing Platform' (Middleware 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="reproduce one of the paper's tables")
    table.add_argument("which", choices=_TABLE_KEYS + ["all"])
    _add_scale_seed(table)
    _add_execution_opts(table)
    _add_policy_override(table)

    figure = sub.add_parser("figure", help="reproduce one of the paper's figures")
    figure.add_argument("which", choices=["2", "3", "4"])
    _add_scale_seed(figure)
    _add_execution_opts(figure)
    figure.add_argument(
        "--horizon", type=float, default=None, help="horizon minutes (figures 2/4)"
    )
    figure.add_argument(
        "--svg", default=None, metavar="PATH", help="also render the figure as SVG"
    )

    run = sub.add_parser("run", help="run one simulation and print its summary")
    run.add_argument("--scenario", choices=list(_SCENARIOS), default="busy-week")
    run.add_argument(
        "--policy", default="NoRes", metavar="SPEC",
        help="policy spec: NAME or NAME:key=value,... "
        "(see 'repro policies list'; default: NoRes)",
    )
    run.add_argument(
        "--initial-scheduler",
        choices=list(INITIAL_SCHEDULER_NAMES),
        default="round-robin",
    )
    run.add_argument("--wait-threshold", type=float, default=30.0)
    run.add_argument(
        "--machine-mtbf", type=float, default=None, metavar="MIN",
        help="inject machine churn with this mean time between failures (minutes)",
    )
    run.add_argument(
        "--machine-mttr", type=float, default=120.0, metavar="MIN",
        help="mean machine repair time for --machine-mtbf (minutes, default 120)",
    )
    run.add_argument(
        "--job-failure-prob", type=float, default=0.0, metavar="P",
        help="per-execution-segment transient job failure probability",
    )
    run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="execution attempts before a transiently failing job gives up",
    )
    run.add_argument(
        "--events", default=None, metavar="PATH",
        help="write the simulation's event log to this JSONL file",
    )
    run.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="collect engine metrics and export them into DIR "
        "(metrics.prom + metrics.jsonl; render with 'repro stats DIR')",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="time each engine layer (event queue, pools, wait queues, policy, ...) "
        "and print the layer table",
    )
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a real trace file instead of a synthetic scenario "
        "(streaming, constant memory; see docs/traces.md)",
    )
    run.add_argument(
        "--trace-format", choices=["swf", "google"], default="swf",
        help="format of --trace (default: swf)",
    )
    _add_scale_seed(run)

    faults = sub.add_parser(
        "faults",
        help="fault-injection sweep: rescheduling policies under machine churn",
    )
    faults.add_argument(
        "--mtbf", type=float, action="append", default=None, metavar="MIN",
        help="machine MTBF in minutes (repeatable; default: REPRO_FAULT_MTBFS preset)",
    )
    faults.add_argument(
        "--mttr", type=float, default=None, metavar="MIN",
        help="mean machine repair time in minutes (default: REPRO_FAULT_MTTR preset)",
    )
    faults.add_argument(
        "--job-failure-prob", type=float, default=0.0, metavar="P",
        help="per-execution-segment transient job failure probability",
    )
    _add_scale_seed(faults)

    run_grid = sub.add_parser(
        "run-grid",
        help="run a named experiment grid on an execution backend "
        "(cache-coordinated workers; see docs/distributed.md)",
    )
    run_grid.add_argument(
        "--preset",
        choices=["fault-sweep", "smoke", "table1"],
        default="fault-sweep",
        help="which grid to run (default: fault-sweep)",
    )
    run_grid.add_argument(
        "--backend",
        default="local",
        metavar="SPEC",
        help="execution backend: local (serial, in-process), local:N "
        "(supervised fleet of up to N local workers), subprocess[:N] "
        "or supervised[:MIN-MAX] (default: local)",
    )
    run_grid.add_argument(
        "--shard-id", type=int, default=None, metavar="K",
        help="compute only static shard K of --num-shards (cells with "
        "index %% num_shards == K); the coordination-free fallback for "
        "fleets without a shared cache directory",
    )
    run_grid.add_argument(
        "--num-shards", type=int, default=None, metavar="N",
        help="total static shards (requires --shard-id)",
    )
    run_grid.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SEC",
        help="heartbeat age after which a dead worker's cell is taken "
        "over (default 60)",
    )
    run_grid.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="shared result cache directory — the fabric's coordination "
        "medium (default: REPRO_CACHE_DIR)",
    )
    run_grid.add_argument(
        "--no-cache", action="store_true",
        help="bypass the cache; a worker fleet then coordinates through "
        "a temporary cache deleted after the run",
    )
    run_grid.add_argument(
        "--progress", action="store_true",
        help="print a per-cell heartbeat (done/total, ETA, provenance) to stderr",
    )
    run_grid.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="write cells.jsonl and fabric gauges (repro_fabric_cells) into DIR",
    )
    run_grid.add_argument(
        "--supervise", action="store_true",
        help="run the fleet under the self-healing supervisor (crash "
        "restarts with backoff, quarantine, elastic sizing); overrides "
        "--backend (see docs/robustness.md)",
    )
    run_grid.add_argument(
        "--min-workers", type=int, default=1, metavar="N",
        help="--supervise: never shrink the fleet below N workers (default 1)",
    )
    run_grid.add_argument(
        "--max-workers", type=int, default=4, metavar="N",
        help="--supervise: never grow the fleet above N workers (default 4)",
    )
    _add_scale_seed(run_grid)
    _add_policy_override(run_grid)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection scenario against a live "
        "supervised fleet and audit the invariants "
        "(see docs/robustness.md)",
    )
    chaos_cmd.add_argument(
        "action", choices=["run", "list"],
        help="'run' one scenario end to end, or 'list' the catalogue",
    )
    chaos_cmd.add_argument(
        "--scenario", default="kill-storm", metavar="NAME",
        help="scenario to run (see 'repro chaos list'; default: kill-storm)",
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=2010, metavar="N",
        help="deterministic schedule seed (default 2010)",
    )
    chaos_cmd.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="fleet size ceiling during the scenario (default 4)",
    )
    chaos_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full report as JSON instead of a summary",
    )

    policies_cmd = sub.add_parser(
        "policies", help="inspect the policy plugin registry"
    )
    policies_cmd.add_argument(
        "action", choices=["list"], nargs="?", default="list",
        help="what to do (default: list)",
    )

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect or garbage-collect a result cache directory",
    )
    cache_cmd.add_argument("action", choices=["stats", "gc"])
    cache_cmd.add_argument(
        "directory", nargs="?", default=None,
        help="cache directory (default: REPRO_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="gc: evict oldest entries until the cache fits SIZE "
        "(accepts 512M, 2G, plain bytes)",
    )
    cache_cmd.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="gc: evict entries older than AGE (accepts 90m, 36h, 7d, "
        "plain seconds)",
    )
    cache_cmd.add_argument(
        "--dry-run", action="store_true",
        help="gc: report what would be evicted without deleting anything",
    )

    stats = sub.add_parser(
        "stats", help="render a telemetry directory written by --telemetry-dir"
    )
    stats.add_argument(
        "directory",
        help="directory holding metrics.jsonl / metrics.prom / cells.jsonl",
    )

    gen = sub.add_parser("generate-trace", help="write a scenario's trace to JSONL")
    gen.add_argument("output", help="output path (.jsonl)")
    gen.add_argument("--scenario", choices=list(_SCENARIOS), default="busy-week")
    _add_scale_seed(gen)

    analyze = sub.add_parser("analyze-trace", help="print statistics of a JSONL trace")
    analyze.add_argument("input", help="trace path (.jsonl)")

    validate = sub.add_parser(
        "validate", help="run the experiments and check the paper's claims"
    )
    _add_scale_seed(
        validate,
        scale_help="cluster scale factor of every experiment, the year-long "
        "Figures 2 and 4 included (default: REPRO_SCALE or 0.25 for the tables "
        "and Figure 3, REPRO_YEAR_SCALE or 0.08 for Figures 2 and 4)",
    )
    validate.add_argument(
        "--year-horizon", type=float, default=None, help="horizon for figures 2/4"
    )

    export = sub.add_parser(
        "export", help="run one simulation and export its outputs as CSV"
    )
    export.add_argument("outdir", help="directory to write CSV files into")
    export.add_argument("--scenario", choices=list(_SCENARIOS), default="busy-week")
    export.add_argument(
        "--policy", default="NoRes", metavar="SPEC",
        help="policy spec (see 'repro policies list'; default: NoRes)",
    )
    _add_scale_seed(export)

    ingest = sub.add_parser(
        "ingest",
        help="stream a real trace (SWF / Google cluster) through the "
        "simulator in constant memory and report the run",
    )
    ingest.add_argument("trace", help="trace file path")
    ingest.add_argument(
        "--format", choices=["swf", "google"], default="swf", dest="trace_format",
        help="trace format (default: swf)",
    )
    ingest.add_argument(
        "--policy", default="NoRes", metavar="SPEC",
        help="policy spec (see 'repro policies list'; default: NoRes)",
    )
    ingest.add_argument(
        "--window", nargs=2, type=float, default=None, metavar=("START", "END"),
        help="replay only jobs submitted in [START, END) minutes of the "
        "source clock",
    )
    ingest.add_argument(
        "--stride", type=int, default=1, metavar="N",
        help="keep every N-th eligible job (deterministic scale-down)",
    )
    ingest.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="stop after replaying N jobs",
    )
    ingest.add_argument(
        "--unrestricted", action="store_true",
        help="skip the business-group ownership mapping (jobs may run anywhere)",
    )
    ingest.add_argument(
        "--rss-ceiling-mb", type=float, default=None, metavar="MB",
        help="fail (exit 1) if this process's peak RSS exceeds MB — the "
        "constant-memory gate CI runs",
    )
    ingest.add_argument(
        "--json", action="store_true",
        help="emit a single machine-readable JSON object instead of tables",
    )
    _add_scale_seed(ingest)

    fixture = sub.add_parser(
        "make-fixture",
        help="write a deterministic synthetic SWF / Google-CSV fixture "
        "(format-faithful, no downloads needed)",
    )
    fixture.add_argument("output", help="output path")
    fixture.add_argument(
        "--format", choices=["swf", "google"], default="swf", dest="trace_format",
        help="fixture format (default: swf)",
    )
    fixture.add_argument("--jobs", type=int, default=100_000, metavar="N")
    fixture.add_argument(
        "--utilization", type=float, default=0.35,
        help="offered load vs the --scale cluster (default 0.35)",
    )
    fixture.add_argument(
        "--mean-runtime", type=float, default=150.0, metavar="MIN",
        help="mean job runtime in minutes (default 150)",
    )
    _add_scale_seed(fixture)
    return parser


def _add_scale_seed(
    parser: argparse.ArgumentParser, scale_help: str = "cluster scale factor"
) -> None:
    parser.add_argument("--scale", type=float, default=None, help=scale_help)
    parser.add_argument("--seed", type=int, default=None, help="workload seed")


def _add_policy_override(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", action="append", default=None, metavar="SPEC",
        help="replace the default strategy set with this policy spec "
        "(repeatable; see 'repro policies list')",
    )


def _add_execution_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the experiment grid (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="on-disk result cache directory (default: REPRO_CACHE_DIR; unset = off)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even when a cache directory is configured",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a per-cell heartbeat (done/total, ETA, cache hits) to stderr",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="write per-cell execution telemetry (cells.jsonl) into DIR",
    )


#: Best-effort telemetry flushers run when the user hits Ctrl-C, so an
#: interrupted sweep still leaves its partial cells.jsonl / metrics on
#: disk.  Commands register a closure here and clear it on normal exit.
_INTERRUPT_FLUSHERS: List[Callable[[], None]] = []


class _CellFeed:
    """Per-cell callback for the experiment backend.

    Collects every completed cell (for ``cells.jsonl``) and forwards to
    an optional :class:`~repro.telemetry.ProgressReporter` heartbeat.
    """

    def __init__(self, reporter=None) -> None:
        self.cells: list = []
        self._reporter = reporter

    def add_total(self, count: int) -> None:
        if self._reporter is not None:
            self._reporter.add_total(count)

    def __call__(self, outcome) -> None:
        self.cells.append(outcome)
        if self._reporter is not None:
            self._reporter(outcome)


def _make_cell_feed(args: argparse.Namespace) -> Optional[_CellFeed]:
    """A :class:`_CellFeed` when --progress / --telemetry-dir ask for one."""
    if not (args.progress or args.telemetry_dir):
        return None
    reporter = None
    if args.progress:
        from .telemetry import ProgressReporter

        reporter = ProgressReporter()
    feed = _CellFeed(reporter)
    if args.telemetry_dir:
        _INTERRUPT_FLUSHERS.append(lambda: _write_cell_telemetry(feed, args))
    return feed


def _write_cell_telemetry(feed: Optional[_CellFeed], args: argparse.Namespace) -> None:
    if feed is None or not args.telemetry_dir:
        return
    from .telemetry import write_cells_jsonl

    path = write_cells_jsonl(feed.cells, args.telemetry_dir)
    print(f"wrote {len(feed.cells)} cell records to {path}")


def _execution_kwargs(
    args: argparse.Namespace, progress: Optional[Callable] = None
) -> dict:
    """The workers/cache kwargs every experiment entry point accepts."""
    return {
        "workers": args.workers,
        "cache_dir": args.cache_dir,
        "use_cache": False if args.no_cache else None,
        "progress": progress,
    }


_PROVENANCE_SOURCES = {
    "computed": "simulated",
    "cache_hit": "cache",
    "claimed_elsewhere": "elsewhere",
}


def _print_cell_stats(cells) -> None:
    """Per-cell wall-time / provenance lines (the observable speedup)."""
    from .telemetry import cell_provenance

    if not cells:
        return
    provenances = [cell_provenance(c) for c in cells]
    for cell, provenance in zip(cells, provenances):
        source = _PROVENANCE_SOURCES.get(provenance, provenance)
        spec = getattr(cell, "policy_spec", None)
        label = cell.policy_name
        if spec and spec != cell.policy_name:
            label = f"{cell.policy_name} <{spec}>"
        print(
            f"  [{label} @ {cell.scenario_name}] "
            f"{cell.wall_seconds:.2f}s {source}"
        )
    saved = sum(
        c.wall_seconds for c, p in zip(cells, provenances) if p != "computed"
    )
    split = ", ".join(
        f"{provenances.count(kind)} {label}"
        for kind, label in _PROVENANCE_SOURCES.items()
        if provenances.count(kind)
    )
    print(
        f"  cells: {len(cells)} ({split}), "
        f"simulation seconds saved: {saved:.2f}"
    )


def _cmd_table(args: argparse.Namespace) -> int:
    feed = _make_cell_feed(args)
    keys = _TABLE_KEYS if args.which == "all" else [args.which]
    # One grid: a cell two tables share (Tables 4/5 NoRes) runs once.
    comparisons = run_experiments(
        keys, args.scale, args.seed, policies=args.policy, **_execution_kwargs(args, feed)
    )
    for key, comparison in comparisons.items():
        experiment = EXPERIMENTS[key]
        print(experiment.render(comparison))
        _print_cell_stats(comparison.cells)
        print()
    _write_cell_telemetry(feed, args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    feed = _make_cell_feed(args)
    experiment = EXPERIMENTS[f"figure{args.which}"]
    figure = experiment.run(
        args.scale, args.seed, args.horizon, **_execution_kwargs(args, feed)
    )
    print(experiment.render(figure))
    if args.svg:
        from .analysis import svg

        if args.which == "2":
            svg_document = svg.cdf_svg(list(figure.cdf_points))
        elif args.which == "3":
            svg_document = svg.stacked_bars_svg(figure.summaries)
        else:
            svg_document = svg.timeseries_svg(figure.analysis.points)
        svg.write_svg(svg_document, args.svg)
        print(f"wrote {args.svg}")
    _write_cell_telemetry(feed, args)
    return 0


def _build_scenario(args: argparse.Namespace):
    builder = _SCENARIOS[args.scenario]
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return builder(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    from .faults import NO_FAULTS
    from .simulator.engine import SimulationEngine
    from .telemetry import Instrumentation, MetricsRegistry, write_telemetry_dir

    scenario = None if args.trace else _build_scenario(args)
    policy = policy_from_spec(
        args.policy, defaults={"wait_threshold": args.wait_threshold}
    )
    scheduler = initial_scheduler_from_name(args.initial_scheduler)
    observer = None
    observers = ()
    if args.events:
        from .simulator.observer import JsonlEventWriter

        observer = JsonlEventWriter(args.events)
        observers = (observer,)
    registry = MetricsRegistry() if args.telemetry_dir else None
    instrumentation = Instrumentation(
        observers=observers, metrics=registry, profile=args.profile
    )
    faults = NO_FAULTS
    if args.machine_mtbf is not None or args.job_failure_prob > 0.0:
        from .faults import FaultConfig, MachineChurn, RetryPolicy
        from .workload.distributions import Exponential

        churn = (
            MachineChurn(
                mtbf=Exponential(args.machine_mtbf),
                mttr=Exponential(args.machine_mttr),
            )
            if args.machine_mtbf is not None
            else None
        )
        faults = FaultConfig(
            machine_churn=churn,
            job_failure_probability=args.job_failure_prob,
            retry=RetryPolicy(max_attempts=args.max_attempts),
        )
    if registry is not None and args.telemetry_dir:
        _INTERRUPT_FLUSHERS.append(
            lambda: write_telemetry_dir(registry, args.telemetry_dir)
        )
    config = SimulationConfig(
        strict=False, instrumentation=instrumentation, faults=faults
    )
    if args.trace:
        # Real-trace replay: stream the file through the engine with an
        # OnlineResults sink — constant memory regardless of trace size.
        from .simulator.online import OnlineResults
        from .workload.traces import default_replay_spec

        template, cluster = _ingest_cluster(args)
        spec = default_replay_spec(template)
        engine = SimulationEngine(
            spec.replay(args.trace, args.trace_format),
            cluster,
            policy=policy,
            initial_scheduler=scheduler,
            config=config,
            sink=OnlineResults(),
        )
        result = engine.run()
        summary = result.summary()
        title = f"trace={args.trace} ({result.job_count} jobs)"
    else:
        engine = SimulationEngine(
            scenario.trace,
            scenario.cluster,
            policy=policy,
            initial_scheduler=scheduler,
            config=config,
        )
        result = engine.run()
        summary = summarize(result)
        title = f"scenario={scenario.name} ({len(scenario.trace)} jobs)"
    print(render_table([summary], title))
    print()
    print(render_waste_components([summary]))
    if result.fault_stats is not None:
        print()
        print(result.fault_stats.render())
    if observer is not None:
        print(f"\nwrote {observer.written} events to {args.events}")
    if args.profile:
        report = engine.profile_report()
        if report is not None:
            print()
            print(report.render())
    if registry is not None:
        prom, jsonl = write_telemetry_dir(registry, args.telemetry_dir)
        print(f"wrote {prom} and {jsonl} (render with 'repro stats {args.telemetry_dir}')")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments.fault_sweep import fault_sweep

    sweep = fault_sweep(
        mtbf_minutes=args.mtbf,
        mttr_minutes=args.mttr,
        scale=args.scale,
        seed=args.seed,
        job_failure_probability=args.job_failure_prob,
    )
    print(sweep.render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry import load_telemetry_dir, render_stats

    print(render_stats(load_telemetry_dir(args.directory)))
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from .policies import available_policies, available_selectors

    def _render(kind, entries) -> None:
        print(f"{kind}:")
        width = max((len(e.name) for e in entries), default=0)
        for entry in entries:
            context = (
                f"  [needs context: {', '.join(entry.context)}]"
                if entry.context
                else ""
            )
            print(f"  {entry.name:<{width}}  {entry.description}{context}")

    _render("policies", available_policies())
    print()
    _render("selectors", available_selectors())
    print()
    print(
        "spec grammar: NAME or NAME:key=value,...  (nested selectors: "
        "selector=name(key=value)); see docs/policies.md"
    )
    return 0


def _cmd_run_grid(args: argparse.Namespace) -> int:
    from .experiments.cache import open_cache, stable_hash
    from .fabric import backend_from_spec, build_grid, run_grid_fabric, shard_tasks

    if (args.shard_id is None) != (args.num_shards is None):
        raise ReproError("--shard-id and --num-shards must be given together")
    tasks = build_grid(
        args.preset, scale=args.scale, seed=args.seed, policies=args.policy
    )
    total_cells = len(tasks)
    if args.num_shards is not None:
        tasks = shard_tasks(tasks, args.shard_id, args.num_shards)
        print(
            f"static shard {args.shard_id}/{args.num_shards}: "
            f"{len(tasks)} of {total_cells} cells"
        )
    if args.supervise:
        import signal

        from .fabric import SupervisedWorkerBackend

        if not 1 <= args.min_workers <= args.max_workers:
            raise ReproError(
                "--supervise needs 1 <= --min-workers <= --max-workers "
                f"(got {args.min_workers}..{args.max_workers})"
            )
        backend = SupervisedWorkerBackend(
            min_workers=args.min_workers, max_workers=args.max_workers
        )
        # SIGTERM asks for a graceful drain: stop the fleet, leave the
        # leases and cache coherent, exit nonzero.  A resumed run picks
        # up exactly the unpublished cells.
        signal.signal(
            signal.SIGTERM, lambda *_: backend.request_drain()
        )
    else:
        backend = backend_from_spec(args.backend)
    cache = open_cache(args.cache_dir, False if args.no_cache else None)
    feed = _make_cell_feed(args)
    registry = None
    if args.telemetry_dir:
        from .telemetry import MetricsRegistry

        registry = MetricsRegistry()

    # Without a cache a fleet coordinates through a temporary one;
    # static sharding still applies, which is exactly the degraded
    # multi-host mode.
    grid = run_grid_fabric(
        tasks,
        backend,
        cache,
        progress=feed,
        registry=registry,
        keep_going=True,
        lease_ttl=args.lease_ttl,
    )

    _print_cell_stats(list(grid.completed))
    split = ", ".join(
        f"{count} {_PROVENANCE_SOURCES.get(kind, kind)}"
        for kind, count in grid.provenance_counts().items()
    )
    print(
        f"  backend {grid.backend}: {len(grid.completed)}/{len(tasks)} "
        f"cells ({split or 'none'})"
    )
    if grid.worker_totals:
        print(
            "  fleet: "
            + ", ".join(f"{k}={v}" for k, v in grid.worker_totals)
        )
    # One digest over every cell's summary, in grid order: equal
    # digests mean bit-identical results, whatever the backend.
    digests = [
        stable_hash(o.summary) if o is not None else None for o in grid.outcomes
    ]
    print(f"  digest {stable_hash(digests)}")
    if cache is not None:
        print(f"  {cache.stats.as_line()}")
    for failure in grid.failures:
        print(
            f"  FAILED {failure.cell_id}: {failure.error_type}: "
            f"{failure.message}",
            file=sys.stderr,
        )
    if registry is not None and args.telemetry_dir:
        from .telemetry import write_telemetry_dir

        prom, jsonl = write_telemetry_dir(registry, args.telemetry_dir)
        print(f"wrote {prom} and {jsonl}")
    _write_cell_telemetry(feed, args)
    return 0 if grid.ok else 1


def _parse_size(text: str) -> int:
    """``512M`` / ``2G`` / ``1048576`` -> bytes."""
    text = text.strip()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
    suffix = text[-1:].upper()
    try:
        if suffix in units:
            return int(float(text[:-1]) * units[suffix])
        return int(text)
    except ValueError:
        raise ReproError(
            f"bad size {text!r} (expected bytes or K/M/G/T suffix)"
        ) from None


def _parse_age(text: str) -> float:
    """``90m`` / ``36h`` / ``7d`` / ``3600`` -> seconds."""
    text = text.strip()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    suffix = text[-1:].lower()
    try:
        if suffix in units:
            return float(text[:-1]) * units[suffix]
        return float(text)
    except ValueError:
        raise ReproError(
            f"bad age {text!r} (expected seconds or s/m/h/d/w suffix)"
        ) from None


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache, resolve_cache_dir

    directory = resolve_cache_dir(args.directory)
    if directory is None:
        raise ReproError(
            "no cache directory (pass one or set REPRO_CACHE_DIR)"
        )
    if not directory.is_dir():
        raise ReproError(f"cache directory not found: {directory}")
    cache = ResultCache(directory)
    if args.action == "stats":
        print(f"cache {directory}: {cache.disk_stats().as_line()}")
        return 0
    max_bytes = _parse_size(args.max_bytes) if args.max_bytes else None
    max_age = _parse_age(args.max_age) if args.max_age else None
    if max_bytes is None and max_age is None:
        raise ReproError("cache gc needs --max-bytes and/or --max-age")
    report = cache.gc(
        max_bytes=max_bytes, max_age_seconds=max_age, dry_run=args.dry_run
    )
    print(f"cache {directory}: {report.as_line()}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import SCENARIOS, run_scenario

    if args.action == "list":
        width = max(len(name) for name in SCENARIOS)
        for name, description in SCENARIOS.items():
            print(f"  {name:<{width}}  {description}")
        return 0
    if args.scenario not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        raise ReproError(f"unknown scenario {args.scenario!r} (known: {known})")
    report = run_scenario(
        args.scenario, seed=args.seed, workers=args.workers
    )
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        verdict = "OK" if report.ok else "VIOLATED"
        print(
            f"chaos {report.scenario} (seed {report.seed}): {verdict} — "
            f"{report.cells} cells in {report.wall_seconds:.2f}s, "
            f"recovery {report.recovery_seconds:.2f}s, "
            f"{report.restarts} restart(s), "
            f"{report.quarantined} quarantined, "
            f"{report.cells_recovered} cell(s) recovered, "
            f"{report.takeovers} takeover(s), "
            f"{report.swept_leases} lease(s) swept"
        )
        for violation in report.violations:
            print(f"  VIOLATION: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    workload_io.trace_to_jsonl(scenario.trace, args.output)
    stats = scenario.trace.stats()
    print(
        f"wrote {stats.job_count} jobs spanning {stats.horizon_minutes:.0f} minutes "
        f"to {args.output}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    paper, extensions = validate_all_claims(
        scale=args.scale, seed=args.seed, year_horizon=args.year_horizon
    )
    print(paper.render())
    print()
    print("Beyond the paper: ablations, inter-site rescheduling, Section 2 observations")
    print(extensions.render())
    return 0 if paper.passed and extensions.passed else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.export import (
        write_cdf_csv,
        write_job_records_csv,
        write_summaries_csv,
        write_utilization_csv,
    )
    from .analysis.utilization import analyze_utilization

    scenario = _build_scenario(args)
    policy = policy_from_spec(args.policy)
    result = run_simulation(
        scenario.trace,
        scenario.cluster,
        policy=policy,
        config=SimulationConfig(strict=False),
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_job_records_csv(result, outdir / "job_records.csv")
    write_summaries_csv([summarize(result)], outdir / "summary.csv")
    write_utilization_csv(
        analyze_utilization(result, up_to_minute=scenario.trace.horizon()),
        outdir / "utilization.csv",
    )
    written = ["job_records.csv", "summary.csv", "utilization.csv"]
    if any(r.was_suspended for r in result.completed_records()):
        write_cdf_csv(result, outdir / "suspension_cdf.csv")
        written.append("suspension_cdf.csv")
    print(f"wrote {', '.join(written)} to {outdir}")
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    trace = workload_io.trace_from_jsonl(args.input)
    stats = trace.stats()
    print(f"jobs:               {stats.job_count}")
    print(f"horizon (minutes):  {stats.horizon_minutes:.1f}")
    print(f"mean runtime:       {stats.mean_runtime:.1f}")
    print(f"mean interarrival:  {stats.mean_interarrival:.3f}")
    print(f"total core-minutes: {stats.total_core_minutes:.0f}")
    for priority in sorted(stats.priority_counts):
        count = stats.priority_counts[priority]
        print(f"priority {priority:>4}:      {count} ({100.0 * count / stats.job_count:.1f}%)")
    return 0


def _ingest_cluster(args: argparse.Namespace):
    """The (template, cluster) pair the ingest-family commands share.

    ``make-fixture`` and ``ingest`` derive sizes from the *same* cluster
    construction, so a fixture generated at ``--scale X`` offers its
    target utilisation to an ``ingest --scale X`` run — which is what
    keeps the in-flight job set (and therefore peak RSS) bounded.
    """
    from .workload.cluster import ClusterTemplate
    from .workload.distributions import RandomStreams

    scale = args.scale if args.scale is not None else 0.25
    template = ClusterTemplate(scale=scale)
    # Fixed cluster seed: --seed varies the *workload* (fixture content),
    # never the cluster, so fixture sizing and replay sizing agree.
    return template, template.build(RandomStreams(2010))


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as json_module
    import resource
    import time

    from .workload.characterization import StreamingCharacterizer
    from .workload.traces import default_replay_spec

    template, cluster = _ingest_cluster(args)
    overrides = {"stride": args.stride, "max_jobs": args.max_jobs}
    if args.window is not None:
        overrides["window_start_minutes"] = args.window[0]
        overrides["window_end_minutes"] = args.window[1]
    spec = default_replay_spec(None if args.unrestricted else template, **overrides)
    policy = policy_from_spec(args.policy)
    characterizer = StreamingCharacterizer()

    from .simulator.simulation import run_streaming

    started = time.perf_counter()
    sink = run_streaming(
        characterizer.tee(spec.replay(args.trace, args.trace_format)),
        cluster,
        policy=policy,
        config=SimulationConfig(strict=False),
    )
    wall = time.perf_counter() - started
    # ru_maxrss is in KB on Linux; this is the whole process's
    # high-water mark, which is exactly what the ceiling gate is about.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jobs_per_second = sink.job_count / wall if wall > 0 else 0.0
    warnings = characterizer.check_paper_regime(cluster.total_cores)

    if args.json:
        summary = sink.summary()
        print(
            json_module.dumps(
                {
                    "path": args.trace,
                    "format": args.trace_format,
                    "policy": sink.policy_name,
                    "jobs": sink.job_count,
                    "completed": sink.completed_count,
                    "rejected": sink.rejected_count,
                    "suspended": sink.suspended_count,
                    "wall_seconds": wall,
                    "jobs_per_second": jobs_per_second,
                    "peak_rss_mb": peak_rss_mb,
                    "total_cores": cluster.total_cores,
                    "offered_load": characterizer.utilization(cluster.total_cores),
                    "avg_ct_all": summary.avg_ct_all,
                    "mean_wait": summary.waste.wait_time,
                    "mean_utilization": sink.mean_utilization(),
                    "warnings": warnings,
                },
                indent=2,
            )
        )
    else:
        print(render_table([sink.summary()], f"trace={args.trace} ({sink.job_count} jobs)"))
        print()
        print(characterizer.render(cluster.total_cores))
        print()
        print(sink.wait_histogram.render("wait time"))
        if sink.suspension_histogram.count:
            print(sink.suspension_histogram.render("suspension time"))
        print(
            f"\ningested {sink.job_count} jobs in {wall:.1f}s "
            f"({jobs_per_second:,.0f} jobs/s), peak RSS {peak_rss_mb:.0f} MB"
        )
    if args.rss_ceiling_mb is not None and peak_rss_mb > args.rss_ceiling_mb:
        print(
            f"error: peak RSS {peak_rss_mb:.0f} MB exceeds the "
            f"{args.rss_ceiling_mb:.0f} MB ceiling — streaming ingestion is "
            f"no longer constant-memory",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_make_fixture(args: argparse.Namespace) -> int:
    from .workload.traces import generate_google_fixture, generate_swf_fixture

    template, cluster = _ingest_cluster(args)
    generate = (
        generate_swf_fixture if args.trace_format == "swf" else generate_google_fixture
    )
    seed = args.seed if args.seed is not None else 1
    totals = generate(
        args.output,
        args.jobs,
        seed=seed,
        target_cores=cluster.total_cores,
        utilization=args.utilization,
        mean_runtime_minutes=args.mean_runtime,
    )
    print(
        f"wrote {args.jobs} {args.trace_format} jobs spanning "
        f"{totals['horizon_minutes']:.0f} minutes to {args.output} "
        f"(sized for a {cluster.total_cores}-core cluster at "
        f"{args.utilization:g} load; replay with "
        f"'repro ingest {args.output}"
        + (" --format google" if args.trace_format == "google" else "")
        + (f" --scale {args.scale:g}'" if args.scale is not None else "'")
        + ")"
    )
    return 0


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "run": _cmd_run,
    "faults": _cmd_faults,
    "run-grid": _cmd_run_grid,
    "chaos": _cmd_chaos,
    "policies": _cmd_policies,
    "cache": _cmd_cache,
    "stats": _cmd_stats,
    "generate-trace": _cmd_generate_trace,
    "analyze-trace": _cmd_analyze_trace,
    "validate": _cmd_validate,
    "export": _cmd_export,
    "ingest": _cmd_ingest,
    "make-fixture": _cmd_make_fixture,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    del _INTERRUPT_FLUSHERS[:]
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unreadable trace/fixture/telemetry paths surface as plain
        # CLI errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Flush whatever telemetry the interrupted command had gathered
        # (each write is atomic, so a second Ctrl-C can't corrupt it),
        # then exit with the conventional 128+SIGINT code.
        for flush in _INTERRUPT_FLUSHERS:
            try:
                flush()
            except Exception:
                pass
        print("interrupted; partial telemetry flushed", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
