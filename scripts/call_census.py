#!/usr/bin/env python3
"""Count the engine's Python function calls per simulated job.

Runs the first ``--jobs`` jobs of ``high_suspension(scale=0.25)`` weeks
under ResSusUtil with ``cProfile`` on and prints the total call count
divided by the number of job records, followed by the functions with
the most calls per job.  Call counts are deterministic for a given
source tree and seed list, unlike wall times, so two trees compare
exactly.  They are not a work count: cProfile never sees slot-wrapper
calls such as a frozen dataclass's per-field ``object.__setattr__`` but
counts the ``tuple.__new__`` inside a named tuple's ``__new__``, and
functions compiled from strings (dataclass ``__init__``, namedtuple
``__new__``) share one ``<string>`` label, under which ``pstats`` keeps
a single function's count.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/call_census.py --seeds 1001 1002 --top 25
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

from repro import high_suspension, run_simulation
from repro.policies import policy_from_spec
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.workload.trace import Trace


def census(seeds, jobs: int):
    """Profile one run per seed; return ``(stats, jobs_simulated)``."""
    profiler = cProfile.Profile()
    simulated = 0
    for seed in seeds:
        scenario = high_suspension(scale=0.25, seed=seed)
        trace = Trace(scenario.trace.jobs[:jobs])
        policy = policy_from_spec(
            "ResSusUtil", defaults={"wait_threshold": scenario.wait_threshold}
        )
        config = SimulationConfig(strict=False, seed=seed)
        profiler.enable()
        result = run_simulation(
            trace, scenario.cluster, policy=policy,
            initial_scheduler=RoundRobinScheduler(), config=config,
        )
        profiler.disable()
        simulated += len(result.records)
    return pstats.Stats(profiler), simulated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1001, 1002])
    parser.add_argument("--jobs", type=int, default=16_000)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    stats, simulated = census(args.seeds, args.jobs)
    print(f"jobs={simulated} calls={stats.total_calls} "
          f"calls_per_job={stats.total_calls / simulated:.1f}")
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][1])
    for (filename, line, name), (_, ncalls, *_rest) in rows[: args.top]:
        where = f"{filename.rsplit('/', 1)[-1]}:{line}" if line else "~"
        print(f"{ncalls / simulated:8.2f}  {ncalls:9d}  {name} ({where})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
