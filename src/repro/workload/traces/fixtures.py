"""Synthetic SWF / Google-cluster fixture generation.

Tests and CI must exercise the real-trace ingestion path end to end
without ever downloading a multi-gigabyte archive trace.  These
generators write *synthetic but format-faithful* fixtures: canonical
SWF (byte-round-trippable through :mod:`repro.workload.traces.swf`) and
task_events CSV (event-time ordered, SUBMIT/SCHEDULE/terminal triples,
same 13 columns the published Google trace uses).

Two properties matter beyond format fidelity:

* **Determinism** — a ``(jobs, seed, …)`` tuple always produces the
  same bytes, on every platform, so fixtures can be regenerated in CI
  and digests compared.  Everything derives from one
  :class:`random.Random`; no clocks, no OS entropy.
* **Bounded concurrency** — arrival rates are derived from a target
  cluster size and utilisation (same derivation the scenario presets
  use), so offered load stays below capacity and the streaming
  engine's in-flight set — the thing the CI leg's RSS ceiling actually
  measures — stays O(cluster), not O(trace).

The generators *stream to disk*: one record is formatted and written at
a time, so producing a million-job fixture costs the same memory as a
hundred-job one.
"""

from __future__ import annotations

import heapq
import math
import random
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple, Union

from ..distributions import LogNormal
from .swf import _write_swf_rows

__all__ = ["generate_swf_fixture", "generate_google_fixture"]

#: Expected cores per job under the _draw_cores distribution below;
#: used to convert a utilisation target into an arrival rate.
_MEAN_CORES = 0.82 * 1 + 0.13 * 3 + 0.05 * 8


def _draw_cores(rng: random.Random) -> int:
    """Mostly single-core with a small wide-job tail (paper Section 3.1)."""
    roll = rng.random()
    if roll < 0.82:
        return 1
    if roll < 0.95:
        return rng.choice((2, 3, 4))
    return 8


def _runtime_minutes(mean_minutes: float) -> Callable[[random.Random], float]:
    """Lognormal service demand in minutes with the requested mean (the
    callers floor it at one second)."""
    return LogNormal(math.log(mean_minutes) - 1.1 * 1.1 / 2.0, 1.1).sample


class _PriorityBursts:
    """Queue mix with time-clustered high-priority bursts.

    The paper's busy week contains "a typical burst of high-priority
    jobs and as a result, a burst of job suspension"; a fixture whose
    high-priority stream is smooth Poisson would never exercise that
    regime (and trips the streaming characterizer's burstiness check).
    Outside bursts the mix is ~0.4% high / 9% medium; inside a burst
    window high-priority jumps to 35%.  Burst placement is driven by
    the same ``rng``, so fixtures stay byte-deterministic.
    """

    def __init__(
        self,
        rng: random.Random,
        burst_gap_minutes: float = 1440.0,
        burst_duration_minutes: float = 120.0,
    ) -> None:
        self._rng = rng
        self._gap = burst_gap_minutes
        self._duration = burst_duration_minutes
        self._burst_until = -1.0
        self._next_burst = rng.expovariate(1.0 / burst_gap_minutes)

    def queue_for(self, submit_minute: float) -> int:
        if submit_minute >= self._next_burst:
            self._burst_until = self._next_burst + self._duration
            self._next_burst = self._burst_until + self._rng.expovariate(1.0 / self._gap)
        roll = self._rng.random()
        if submit_minute < self._burst_until:
            if roll < 0.35:
                return 2
            if roll < 0.45:
                return 1
            return 0
        if roll < 0.004:
            return 2
        if roll < 0.09:
            return 1
        return 0


def _arrival_rate_per_minute(
    target_cores: int, utilization: float, mean_runtime_minutes: float
) -> float:
    return utilization * target_cores / (mean_runtime_minutes * _MEAN_CORES)


def generate_swf_fixture(
    path: Union[str, Path],
    jobs: int,
    seed: int = 1,
    *,
    target_cores: int = 1200,
    utilization: float = 0.35,
    mean_runtime_minutes: float = 150.0,
    users: int = 64,
) -> Dict[str, float]:
    """Write a deterministic canonical-SWF fixture; returns summary stats.

    ``target_cores`` and ``utilization`` size the arrival process the
    same way the scenario presets do, so replaying the fixture against
    a cluster of roughly ``target_cores`` cores keeps the in-flight job
    set bounded.  Returns ``{"jobs", "horizon_minutes",
    "core_minutes"}`` computed during generation (no re-read).
    """
    rng = random.Random(seed)
    rate = _arrival_rate_per_minute(target_cores, utilization, mean_runtime_minutes)
    bursts = _PriorityBursts(rng)
    totals = {"jobs": float(jobs), "horizon_minutes": 0.0, "core_minutes": 0.0}

    def emit() -> Iterator[Tuple[int, ...]]:
        # Rows in SWF column order; the fixture bytes pin the order of the draws.
        expovariate, randrange, draw = rng.expovariate, rng.randrange, rng.random
        runtime, queue_for = _runtime_minutes(mean_runtime_minutes), bursts.queue_for
        submit_s = horizon = core_minutes = 0.0
        for number in range(1, jobs + 1):
            submit_s += expovariate(rate) * 60.0
            run_s = max(1, int(runtime(rng) * 60.0))
            cores = _draw_cores(rng)
            queue = queue_for(submit_s / 60.0)
            user = randrange(users)
            mem_kb = randrange(100_000, 4_000_000)
            status = 1 if draw() < 0.97 else 0
            horizon = submit_s / 60.0
            core_minutes += run_s / 60.0 * cores
            yield (
                number, int(submit_s), -1, run_s, cores, -1, mem_kb, cores,
                int(run_s * 1.2) + 60, mem_kb, status, user, user % 8,
                randrange(1, 40), queue, 1, -1, -1,
            )
        totals["horizon_minutes"] = horizon
        totals["core_minutes"] = core_minutes

    comments = (
        "; Synthetic SWF fixture (repro.workload.traces.fixtures)",
        f"; jobs: {jobs}  seed: {seed}  target_cores: {target_cores}"
        f"  utilization: {utilization:g}",
        "; Computer: synthetic NetBatch-like site (not a real archive trace)",
        "; Queues: 0=low 1=medium 2=high priority",
    )
    _write_swf_rows(Path(path), emit(), comments)
    return totals


def generate_google_fixture(
    path: Union[str, Path],
    tasks: int,
    seed: int = 1,
    *,
    target_cores: int = 1200,
    utilization: float = 0.35,
    mean_runtime_minutes: float = 150.0,
    users: int = 32,
) -> Dict[str, float]:
    """Write a deterministic task_events CSV fixture; returns summary stats.

    Each task contributes a SUBMIT, a SCHEDULE and a FINISH row; rows
    are emitted globally sorted by event timestamp (the published
    trace's invariant) using a small future-event heap, so memory stays
    bounded by task concurrency while writing.
    """
    rng = random.Random(seed)
    rate = _arrival_rate_per_minute(target_cores, utilization, mean_runtime_minutes)
    bursts = _PriorityBursts(rng)
    future: list = []  # (timestamp_us, sequence, row)
    seq = 0
    runtime = _runtime_minutes(mean_runtime_minutes)
    horizon = core_minutes = 0.0

    def row(ts_us: int, job_id: int, index: int, event: int, user: str,
            klass: int, priority: int, cpu: float, mem: float) -> str:
        return (
            f"{ts_us},,{job_id},{index},{'' if event == 0 else 4_000_000 + job_id},"
            f"{event},{user},{klass},{priority},{cpu:.5f},{mem:.5f},0.001,0"
        )

    with open(path, "w", encoding="utf-8", newline="") as handle:
        submit_min = 0.0
        for task in range(tasks):
            submit_min += rng.expovariate(rate)
            submit_us = int(submit_min * 60_000_000)
            wait_us = int(rng.expovariate(1.0 / 60.0) * 1_000_000)  # ~1 min mean
            run_s = max(1, int(runtime(rng) * 60.0))
            schedule_us = submit_us + wait_us
            end_us = schedule_us + run_s * 1_000_000
            queue = bursts.queue_for(submit_min)
            user = f"user-{rng.randrange(users)}"
            cpu = rng.choice((0.0125, 0.025, 0.05))
            mem = rng.choice((0.0062, 0.0124, 0.0311))
            job_id = 6_000_000 + task
            horizon = submit_min
            core_minutes += run_s / 60.0

            # Flush every already-generated event at or before this
            # submission so the file stays event-time ordered.
            while future and future[0][0] <= submit_us:
                handle.write(heapq.heappop(future)[2] + "\n")
            handle.write(row(submit_us, job_id, 0, 0, user, queue, queue * 4, cpu, mem) + "\n")
            for ts, event in ((schedule_us, 1), (end_us, 4)):
                heapq.heappush(
                    future,
                    (ts, seq, row(ts, job_id, 0, event, user, queue, queue * 4, cpu, mem)),
                )
                seq += 1
        while future:
            handle.write(heapq.heappop(future)[2] + "\n")
    return {"jobs": float(tasks), "horizon_minutes": horizon, "core_minutes": core_minutes}
