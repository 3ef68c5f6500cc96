"""Synthetic NetBatch-like workload generation.

The real input to the paper's evaluation is one year of proprietary
NetBatch traces.  This module produces a synthetic equivalent that
reproduces the three trace properties the paper's findings hinge on:

1. **Two job populations.**  A steady base stream of low/medium
   priority simulation jobs (Poisson arrivals), plus *bursts* of
   high-priority jobs (Markov-modulated arrivals) — "higher priority
   jobs tend to be bursty in nature ... job suspension can spike
   suddenly" (Section 2.3).
2. **Pool affinity of bursts.**  Each burst is pinned to a small set of
   preferred pools ("latency sensitive jobs with high priority are
   usually configured to only run in specific sets of physical pools"),
   which is what causes suspension even at ~40% overall utilization.
3. **Heavy-tailed runtimes.**  Most jobs are short; a Pareto tail
   produces multi-day jobs and the long-tailed suspension-time CDF of
   Figure 2.

The generator is deterministic given a :class:`~repro.workload.distributions.RandomStreams`
seed.  All knobs live in :class:`WorkloadModel`; the calibrated presets
are in :mod:`repro.workload.scenarios`.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from .arrivals import BurstProcess, BurstWindow, PoissonProcess
from .distributions import (
    BoundedPareto,
    Categorical,
    Mixture,
    RandomStreams,
    Sampler,
    lognormal_from_median,
)
from .trace import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_MEDIUM,
    Trace,
    TraceJob,
)

__all__ = ["WorkloadModel", "WorkloadGenerator", "generate_trace", "default_runtime_model"]


def default_runtime_model() -> Sampler:
    """The default heavy-tailed runtime distribution (minutes).

    An 80/20 mixture of a log-normal body (median three hours — chip
    simulations are long-running) and a bounded Pareto tail reaching
    7,000 minutes (~five days), echoing the paper's long-tailed runtime
    distribution and its ~570-minute average completion times.  The
    multi-week extreme of the real traces is clipped: at our cluster
    scales an unscaled tail would clog whole pools that production-sized
    pools absorb statistically.
    """
    return Mixture(
        components=(
            lognormal_from_median(180.0, sigma=1.1),
            BoundedPareto(alpha=1.35, low=400.0, high=9000.0),
        ),
        weights=(0.75, 0.25),
    )


def default_burst_runtime_model() -> Sampler:
    """Runtime distribution for high-priority (latency-sensitive) jobs.

    Log-normal with a two-hour median: the bursts are batches of
    turn-around-sensitive simulation jobs, long enough to pin their
    target pools for the burst's duration without flooding the queues
    with tiny jobs.
    """
    return lognormal_from_median(120.0, sigma=1.0)


@dataclass(frozen=True)
class WorkloadModel:
    """Full parameterisation of the synthetic workload.

    Attributes:
        horizon_minutes: length of the submission window.
        base_rate: arrival rate (jobs/minute) of the base stream.
        arrival_process: optional replacement for the homogeneous
            Poisson base stream — any object with
            ``iter_arrivals(horizon, rng)`` (e.g.
            :class:`~repro.workload.arrivals.DiurnalPoissonProcess`);
            when set, ``base_rate`` is ignored for generation but kept
            for documentation.
        burst: burst process for high-priority arrivals.
        burst_pool_choices: pool ids bursts may be pinned to (typically
            the large pools of the cluster).
        burst_pools_per_burst: how many pools each burst targets.
        medium_priority_fraction: fraction of the base stream submitted
            at medium priority (these can preempt low-priority jobs but
            are themselves preemptible by the bursts).
        runtime: runtime sampler for base-stream jobs.
        burst_runtime: runtime sampler for burst jobs.
        memory_gb: distribution of job memory requirements.
        cores: distribution of job core requirements.
        os_families: distribution of job OS requirements; must be
            compatible with the cluster's machines or jobs become
            unschedulable.
        group_pool_sets: optional candidate-pool sets, one per business
            group; Linux base-stream jobs are assigned a group (round
            robin over the sets) and restricted to that group's pools.
            This models NetBatch ownership configuration — each group's
            jobs "only run in specific sets of physical pools" — and is
            what exposes random rescheduling to hot pools.  Windows
            jobs stay unrestricted (OS eligibility already confines
            them to the Windows pools).
        task_size: if > 0, consecutive low-priority jobs are grouped
            into logical tasks of this size (Section 2.2's task model).
        low_priority: numeric low priority level.
        medium_priority: numeric medium priority level.
        high_priority: numeric high (burst) priority level.
        users: user names to attribute base jobs to (round-robin).
    """

    horizon_minutes: float
    base_rate: float
    burst: BurstProcess
    burst_pool_choices: Tuple[str, ...]
    burst_pools_per_burst: int = 3
    arrival_process: Optional[object] = None
    medium_priority_fraction: float = 0.10
    runtime: Sampler = field(default_factory=default_runtime_model)
    burst_runtime: Sampler = field(default_factory=default_burst_runtime_model)
    memory_gb: Categorical = Categorical(
        (1.0, 2.0, 4.0, 8.0, 16.0, 32.0), (0.3, 0.27, 0.22, 0.13, 0.06, 0.02)
    )
    cores: Categorical = Categorical((1, 2, 4), (0.85, 0.12, 0.03))
    os_families: Categorical = Categorical(("linux", "windows"), (0.9, 0.1))
    group_pool_sets: Optional[Tuple[Tuple[str, ...], ...]] = None
    task_size: int = 0
    low_priority: int = PRIORITY_LOW
    medium_priority: int = PRIORITY_MEDIUM
    high_priority: int = PRIORITY_HIGH
    users: Tuple[str, ...] = ("cpu-design", "gpu-design", "validation", "physical-design")

    def __post_init__(self) -> None:
        if self.horizon_minutes <= 0:
            raise ConfigurationError(
                f"horizon_minutes must be > 0, got {self.horizon_minutes}"
            )
        if self.base_rate < 0:
            raise ConfigurationError(f"base_rate must be >= 0, got {self.base_rate}")
        if not 0.0 <= self.medium_priority_fraction <= 1.0:
            raise ConfigurationError(
                f"medium_priority_fraction must be in [0, 1], "
                f"got {self.medium_priority_fraction}"
            )
        if self.burst_pools_per_burst < 1:
            raise ConfigurationError(
                f"burst_pools_per_burst must be >= 1, got {self.burst_pools_per_burst}"
            )
        if not self.burst_pool_choices:
            raise ConfigurationError("burst_pool_choices may not be empty")
        if not self.low_priority < self.medium_priority < self.high_priority:
            raise ConfigurationError(
                "priority levels must satisfy low < medium < high, got "
                f"{self.low_priority}, {self.medium_priority}, {self.high_priority}"
            )
        if self.task_size < 0:
            raise ConfigurationError(f"task_size must be >= 0, got {self.task_size}")
        if self.group_pool_sets is not None:
            if not self.group_pool_sets:
                raise ConfigurationError("group_pool_sets may not be an empty tuple")
            for group_set in self.group_pool_sets:
                if not group_set:
                    raise ConfigurationError("each group pool set needs at least one pool")

    def expected_job_count(self) -> float:
        """Expected total number of jobs (base + burst)."""
        if self.arrival_process is not None:
            base = self.arrival_process.expected_count(self.horizon_minutes)
        else:
            base = self.base_rate * self.horizon_minutes
        return base + self.burst.expected_count(self.horizon_minutes)


class WorkloadGenerator:
    """Generates a :class:`~repro.workload.trace.Trace` from a model.

    Separate named random streams drive base arrivals, burst arrivals,
    runtimes and job attributes, so changing one knob never perturbs
    the realisation of the others (important for controlled ablations).
    """

    def __init__(self, model: WorkloadModel, streams: RandomStreams) -> None:
        self._model = model
        self._streams = streams

    @property
    def model(self) -> WorkloadModel:
        """The model this generator realises."""
        return self._model

    def generate(self) -> Trace:
        """Generate the full trace (base stream plus bursts)."""
        jobs: List[TraceJob] = []
        next_id = 0
        next_id = self._generate_base_stream(jobs, next_id)
        self._generate_bursts(jobs, next_id)
        return Trace(jobs)

    # -- internals -----------------------------------------------------------

    def _generate_base_stream(self, jobs: List[TraceJob], next_id: int) -> int:
        model = self._model
        arrival_rng = self._streams.stream("base-arrivals")
        attr_rng = self._streams.stream("base-attributes")
        runtime_rng = self._streams.stream("base-runtimes")
        process = model.arrival_process or PoissonProcess(rate=model.base_rate)

        task_id: Optional[int] = None
        task_remaining = 0
        next_task_id = 0
        group_pool_sets = model.group_pool_sets
        group_count = len(group_pool_sets) if group_pool_sets else 0
        # One name object per group, shared by all of that group's jobs.
        group_users = [f"group-{group:02d}" for group in range(group_count)]
        # Bound once: this loop runs once per base-stream job.  Each
        # Categorical draw is its sample(), inlined on its table; the
        # values are converted once here instead of once per draw.
        append = jobs.append
        attr_random = attr_rng.random
        os_values, os_cum, os_total, os_hi = model.os_families._table
        os_values = tuple(map(str, os_values))
        cores_values, cores_cum, cores_total, cores_hi = model.cores._table
        cores_values = tuple(map(int, cores_values))
        mem_values, mem_cum, mem_total, mem_hi = model.memory_gb._table
        mem_values = tuple(map(float, mem_values))
        sample_runtime = model.runtime.sample
        medium_fraction = model.medium_priority_fraction
        medium_priority = model.medium_priority
        low_priority = model.low_priority
        task_size = model.task_size
        users = model.users
        user_count = len(users)
        for submit in process.iter_arrivals(model.horizon_minutes, arrival_rng):
            if attr_random() < medium_fraction:
                priority = medium_priority
            else:
                priority = low_priority
            if task_size > 0 and priority == low_priority:
                if task_remaining == 0:
                    task_id = next_task_id
                    next_task_id += 1
                    task_remaining = task_size
                task_remaining -= 1
                this_task: Optional[int] = task_id
            else:
                this_task = None
            os_family = os_values[bisect(os_cum, attr_random() * os_total, 0, os_hi)]
            candidate_pools: Optional[Tuple[str, ...]] = None
            if group_count and os_family == "linux":
                group = next_id % group_count
                candidate_pools = group_pool_sets[group]
                user = group_users[group]
            else:
                user = users[next_id % user_count]
            runtime = sample_runtime(runtime_rng)
            append(TraceJob(
                next_id, submit, runtime if runtime > 0.5 else 0.5, priority,
                cores_values[bisect(cores_cum, attr_random() * cores_total, 0, cores_hi)],
                mem_values[bisect(mem_cum, attr_random() * mem_total, 0, mem_hi)],
                os_family, candidate_pools, this_task, user,
            ))
            next_id += 1
        return next_id

    def _generate_bursts(self, jobs: List[TraceJob], next_id: int) -> int:
        model = self._model
        burst_rng = self._streams.stream("burst-arrivals")
        attr_rng = self._streams.stream("burst-attributes")
        runtime_rng = self._streams.stream("burst-runtimes")

        # Bound once: the inner loop runs once per burst job (see
        # _generate_base_stream for the inlined Categorical draws).
        append = jobs.append
        attr_random = attr_rng.random
        cores_values, cores_cum, cores_total, cores_hi = model.cores._table
        cores_values = tuple(map(int, cores_values))
        mem_values, mem_cum, mem_total, mem_hi = model.memory_gb._table
        mem_values = tuple(map(float, mem_values))
        sample_runtime = model.burst_runtime.sample
        high_priority = model.high_priority
        windows = model.burst.windows(model.horizon_minutes, burst_rng)
        for window in windows:
            target_pools = self._pick_burst_pools(window, attr_rng)
            owner = f"owner-{int(window.start) % 7}"
            for submit in window.arrivals:
                runtime = sample_runtime(runtime_rng)
                # Burst jobs stay on the dominant OS so the pool pressure
                # concentrates, as in the paper.
                append(TraceJob(
                    next_id, submit, runtime if runtime > 0.5 else 0.5, high_priority,
                    cores_values[bisect(cores_cum, attr_random() * cores_total, 0, cores_hi)],
                    mem_values[bisect(mem_cum, attr_random() * mem_total, 0, mem_hi)],
                    "linux", target_pools, None, owner,
                ))
                next_id += 1
        return next_id

    def _pick_burst_pools(
        self, window: BurstWindow, rng: random.Random
    ) -> Tuple[str, ...]:
        """Choose the preferred pools for one burst."""
        model = self._model
        count = min(model.burst_pools_per_burst, len(model.burst_pool_choices))
        return tuple(rng.sample(list(model.burst_pool_choices), count))


def generate_trace(model: WorkloadModel, seed: int) -> Trace:
    """Convenience one-shot: generate a trace from ``model`` and ``seed``."""
    return WorkloadGenerator(model, RandomStreams(seed)).generate()
