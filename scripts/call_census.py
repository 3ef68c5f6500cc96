#!/usr/bin/env python3
"""Count the engine's Python function calls per simulated job.

Runs the first ``--jobs`` jobs of ``high_suspension(scale=0.25)`` weeks
under ResSusUtil with ``cProfile`` on and prints the total call count
divided by the number of job records, followed by the functions with
the most calls per job.  Call counts are deterministic for a given
source tree and seed list, unlike wall times, so two trees compare
exactly.  They are not a work count: cProfile never sees slot-wrapper
calls such as a frozen dataclass's per-field ``object.__setattr__`` but
counts the ``tuple.__new__`` inside a named tuple's ``__new__``.

Counts are summed per code object from ``Profile.getstats()``, not
taken from ``pstats``: functions compiled from strings (every dataclass
``__init__``, every namedtuple ``__new__``) share one ``<string>``
label, under which ``pstats`` keeps a single code object's count.  The
listing shows each label once, with the calls of all its code objects.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/call_census.py --seeds 1001 1002 --top 25
"""

from __future__ import annotations

import argparse
import cProfile
from collections import Counter

from repro import high_suspension, run_simulation
from repro.policies import policy_from_spec
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.workload.trace import Trace


def _label(code):
    """``(file, line, name)`` of a profiled code object or built-in."""
    if isinstance(code, str):
        return "~", 0, code
    return code.co_filename, code.co_firstlineno, code.co_name


def census(seeds, jobs: int):
    """Profile one run per seed; return ``(calls, jobs_simulated)``.

    ``calls`` maps each function label to the calls made to every code
    object carrying it.
    """
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
    calls = Counter()
    for entry in profiler.getstats():
        calls[_label(entry.code)] += entry.callcount
    return calls, simulated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1001, 1002])
    parser.add_argument("--jobs", type=int, default=16_000)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    calls, simulated = census(args.seeds, args.jobs)
    total = sum(calls.values())
    print(f"jobs={simulated} calls={total} calls_per_job={total / simulated:.1f}")
    for (filename, line, name), ncalls in calls.most_common(args.top):
        where = f"{filename.rsplit('/', 1)[-1]}:{line}" if line else "~"
        print(f"{ncalls / simulated:8.2f}  {ncalls:9d}  {name} ({where})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
