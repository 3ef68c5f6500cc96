"""Shared helpers for the benchmark suite.

``bench_paper.py`` regenerates each of the paper's tables and figures
and each experiment beyond them (ablations, fault sweep, inter-site
rescheduling, Section 2 observations), prints its rows/series and
asserts the claims of ``repro.validation.CLAIMS`` and
``EXTENSION_CLAIMS`` it completes; the other ``bench_*`` modules cover
replication, the engine and the CI smoke checks.  A
``pytest benchmarks/ --benchmark-only`` run doubles as the full
reproduction log.  Scales are controlled by the ``REPRO_SCALE`` /
``REPRO_YEAR_SCALE`` / ``REPRO_YEAR_HORIZON`` / ``REPRO_SEED``
environment variables (see :mod:`repro.experiments.presets`).

Execution is controlled the same way: ``REPRO_WORKERS`` sets how many
supervised local worker processes run the cells of every table/figure
entry point (unset or 1: serial, in-process), and
``REPRO_CACHE_DIR`` points at an on-disk result cache so repeated
benchmark runs (CI re-runs, bisects) skip identical simulation cells;
``REPRO_NO_CACHE=1`` force-disables the cache even when a directory is
configured.  ``benchmarks/bench_ci_smoke.py`` asserts the two
invariants CI relies on: parallel == serial bit-for-bit, and a warm
cache beats a cold run by a wide margin.

pytest-benchmark is configured for single-shot measurements: each
experiment is a multi-second simulation campaign, not a microbenchmark.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with exactly one round and one iteration."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def banner(title: str) -> str:
    """A separator making each experiment easy to find in the log."""
    rule = "=" * max(len(title), 60)
    return f"\n{rule}\n{title}\n{rule}"
