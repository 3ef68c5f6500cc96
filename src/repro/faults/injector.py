"""The engine-side fault machinery: seeded draws and fault accounting.

:class:`FaultInjector` is created by the engine only when the run's
:class:`~repro.faults.config.FaultConfig` is enabled.  It owns

* the *named child streams* every fault draw comes from — one stream
  per machine (``faults/machine/<pool>/<id>``) for the crash/recover
  renewal process, one for transient job failures, one for retry
  jitter — so fault randomness never perturbs the decision stream the
  policies use, and a zero-fault run draws exactly what it drew before
  this subsystem existed;
* the fault counters (crashes, kills, retries, lost work) that become
  the run's :class:`FaultStats` and, when telemetry is enabled, the
  ``repro_fault_*`` metric families.

The injector never mutates simulator state itself; the engine calls it
for draws and accounting and performs the state transitions, keeping
the orchestration in one place (see ``engine.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import UnknownPoolError
from ..workload.distributions import RandomStreams
from .config import FaultConfig

__all__ = ["FaultInjector", "FaultStats"]


@dataclass(frozen=True)
class FaultStats:
    """What the fault layer did to one run (all counters zero-fault = 0).

    Attributes:
        machine_crashes: machine-down events fired.
        machine_recoveries: machine-up events fired.
        pool_outages: pool blackout windows that started.
        attempts_killed: running/suspended attempts lost to a host death
            or a pool outage (each is requeued, not permanently failed).
        waiting_drained: waiting jobs drained out of a blacked-out
            pool's queue (requeued elsewhere).
        requeues_deferred: resubmissions postponed because every
            candidate pool was dark at that moment.
        transient_failures: job execution segments killed by the
            transient-failure roll.
        retries_scheduled: retries scheduled after transient failures.
        permanent_failures: jobs that exhausted their retry budget.
        lost_work_minutes: reference-speed minutes of completed progress
            thrown away by fault kills and transient failures.
        goodput_minutes: reference-speed minutes of demand actually
            completed (sum of finished jobs' runtimes).
    """

    machine_crashes: int = 0
    machine_recoveries: int = 0
    pool_outages: int = 0
    attempts_killed: int = 0
    waiting_drained: int = 0
    requeues_deferred: int = 0
    transient_failures: int = 0
    retries_scheduled: int = 0
    permanent_failures: int = 0
    lost_work_minutes: float = 0.0
    goodput_minutes: float = 0.0

    @property
    def wall_work_minutes(self) -> float:
        """Total machine work spent: completed demand plus lost work."""
        return self.goodput_minutes + self.lost_work_minutes

    @property
    def goodput_fraction(self) -> float:
        """Fraction of spent work that became completed demand."""
        total = self.wall_work_minutes
        return self.goodput_minutes / total if total else 1.0

    def render(self) -> str:
        """One-paragraph human rendering for the CLI."""
        return (
            f"faults: {self.machine_crashes} machine crash(es), "
            f"{self.pool_outages} pool outage(s), "
            f"{self.attempts_killed} attempt(s) killed, "
            f"{self.transient_failures} transient failure(s), "
            f"{self.retries_scheduled} retr(ies), "
            f"{self.permanent_failures} permanent failure(s); "
            f"lost work {self.lost_work_minutes:.1f} min, "
            f"goodput {self.goodput_minutes:.1f} min "
            f"({100.0 * self.goodput_fraction:.1f}% of wall work)"
        )


class FaultInjector:
    """Seeded fault draws and counters for one engine run."""

    def __init__(
        self,
        config: FaultConfig,
        streams: RandomStreams,
        telemetry=None,
    ) -> None:
        self.config = config
        self._streams = streams
        self._jobs_rng: random.Random = streams.stream("faults/jobs")
        self._retry_rng: random.Random = streams.stream("faults/retry")
        self.machine_crashes = 0
        self.machine_recoveries = 0
        self.pool_outages = 0
        self.attempts_killed = 0
        self.waiting_drained = 0
        self.requeues_deferred = 0
        self.transient_failures = 0
        self.retries_scheduled = 0
        self.permanent_failures = 0
        self.lost_work_minutes = 0.0
        self._metrics = None
        if telemetry is not None:
            registry = telemetry.registry
            self._metrics = {
                "crashes": registry.counter(
                    "repro_fault_machine_crashes_total", "Machine-down events"
                ),
                "recoveries": registry.counter(
                    "repro_fault_machine_recoveries_total", "Machine-up events"
                ),
                "outages": registry.counter(
                    "repro_fault_pool_outages_total",
                    "Pool blackout windows started",
                    labelnames=("pool",),
                ),
                "kills": registry.counter(
                    "repro_fault_attempt_kills_total",
                    "Job attempts killed by faults",
                    labelnames=("cause",),
                ),
                "transient": registry.counter(
                    "repro_fault_transient_failures_total",
                    "Execution segments killed by transient failures",
                ),
                "retries": registry.counter(
                    "repro_fault_retries_total", "Retries scheduled"
                ),
                "permanent": registry.counter(
                    "repro_fault_permanent_failures_total",
                    "Jobs that exhausted their retry budget",
                ),
                "lost": registry.counter(
                    "repro_fault_lost_work_minutes_total",
                    "Reference-speed minutes of progress lost to faults",
                ),
            }

    # -- scheduling -----------------------------------------------------------------

    def schedule_initial(self, events, pool_order: Sequence[str], pools) -> None:
        """Push the first crash per machine and every outage window.

        Raises :class:`UnknownPoolError` for an outage
        naming a pool the cluster does not have.
        """
        from ..simulator.events import EVENT_MACHINE_CRASH, EVENT_POOL_DOWN, EVENT_POOL_UP

        if self.config.machine_churn is not None:
            for pool_id in pool_order:
                for machine in pools[pool_id].machines:
                    events.push(
                        self.draw_ttf(pool_id, machine.machine_id),
                        EVENT_MACHINE_CRASH,
                        (pool_id, machine),
                    )
        for outage in self.config.pool_outages:
            if outage.pool_id not in pools:
                raise UnknownPoolError(outage.pool_id)
            events.push(outage.start_minute, EVENT_POOL_DOWN, outage.pool_id)
            events.push(outage.end_minute, EVENT_POOL_UP, outage.pool_id)

    # -- draws ----------------------------------------------------------------------

    def _machine_rng(self, pool_id: str, machine_id: str) -> random.Random:
        return self._streams.stream(f"faults/machine/{pool_id}/{machine_id}")

    def draw_ttf(self, pool_id: str, machine_id: str) -> float:
        """Minutes until this machine's next crash."""
        return self.config.machine_churn.mtbf.sample(
            self._machine_rng(pool_id, machine_id)
        )

    def draw_ttr(self, pool_id: str, machine_id: str) -> float:
        """Minutes this machine stays down."""
        return self.config.machine_churn.mttr.sample(
            self._machine_rng(pool_id, machine_id)
        )

    def roll_segment_failure(self, duration: float) -> Optional[float]:
        """Whether (and when) this execution segment dies.

        Returns the failure offset into the segment, or ``None`` for a
        clean run to completion.  The roll costs one draw on the
        job-failure stream (two when it fails), independent of the
        decision stream.
        """
        p = self.config.job_failure_probability
        if p <= 0.0 or duration <= 0.0:
            return None
        if self._jobs_rng.random() >= p:
            return None
        return self._jobs_rng.random() * duration

    def retry_delay(self, failure_count: int) -> float:
        """Backoff (with deterministic jitter) after failure ``failure_count``."""
        return self.config.retry.delay_for(failure_count, self._retry_rng)

    # -- accounting ------------------------------------------------------------------

    def note_machine_crash(self) -> None:
        self.machine_crashes += 1
        if self._metrics is not None:
            self._metrics["crashes"].inc()

    def note_machine_recovery(self) -> None:
        self.machine_recoveries += 1
        if self._metrics is not None:
            self._metrics["recoveries"].inc()

    def note_pool_down(self, pool_id: str) -> None:
        self.pool_outages += 1
        if self._metrics is not None:
            self._metrics["outages"].labels(pool_id).inc()

    def note_kill(self, cause: str, lost_minutes: float) -> None:
        """One running/suspended attempt killed by ``cause`` (machine|outage)."""
        self.attempts_killed += 1
        self.lost_work_minutes += lost_minutes
        if self._metrics is not None:
            self._metrics["kills"].labels(cause).inc()
            self._metrics["lost"].inc(lost_minutes)

    def note_drained(self) -> None:
        """One waiting job drained out of a blacked-out pool."""
        self.waiting_drained += 1

    def note_deferred(self) -> None:
        """One resubmission postponed because every candidate pool was dark."""
        self.requeues_deferred += 1

    def note_transient_failure(self, lost_minutes: float) -> None:
        self.transient_failures += 1
        self.lost_work_minutes += lost_minutes
        if self._metrics is not None:
            self._metrics["transient"].inc()
            self._metrics["lost"].inc(lost_minutes)

    def note_retry(self) -> None:
        self.retries_scheduled += 1
        if self._metrics is not None:
            self._metrics["retries"].inc()

    def note_permanent_failure(self) -> None:
        self.permanent_failures += 1
        if self._metrics is not None:
            self._metrics["permanent"].inc()

    # -- end of run ------------------------------------------------------------------

    def finalize(self, goodput_minutes: float) -> FaultStats:
        """Freeze the counters into the run's :class:`FaultStats`.

        ``goodput_minutes`` is the completed reference-speed demand the
        engine's result sink accumulated in completion order.
        """
        return FaultStats(
            machine_crashes=self.machine_crashes,
            machine_recoveries=self.machine_recoveries,
            pool_outages=self.pool_outages,
            attempts_killed=self.attempts_killed,
            waiting_drained=self.waiting_drained,
            requeues_deferred=self.requeues_deferred,
            transient_failures=self.transient_failures,
            retries_scheduled=self.retries_scheduled,
            permanent_failures=self.permanent_failures,
            lost_work_minutes=self.lost_work_minutes,
            goodput_minutes=goodput_minutes,
        )
