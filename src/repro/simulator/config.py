"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.overheads import NO_OVERHEAD, RestartOverhead
from ..errors import ConfigurationError
from ..faults.config import NO_FAULTS, FaultConfig
from ..telemetry.instrumentation import NO_INSTRUMENTATION, Instrumentation

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Engine knobs, all with paper-faithful defaults.

    Attributes:
        sample_interval: minutes between state samples.  ASCA "samples
            at each minute the current states of all NetBatch
            components", so the default is 1.0.  Sampling costs per
            state change, not per minute of horizon: a stretch of ticks
            with no event between them is emitted from one queue event
            and shares one set of per-pool tuples, so only the sample
            list itself grows with the horizon.  Raise the interval for
            very long horizons where per-minute samples are not needed.
        vpm_count: number of virtual pool managers accepting
            submissions; jobs are assigned round-robin by job id.  The
            paper's site has several, but its evaluation semantics do
            not depend on the count, so the default is 1.
        seed: seed for the simulation-side random streams (stochastic
            policies and schedulers); independent from workload seeds.
        strict: when True, a job that is statically ineligible on every
            candidate pool raises
            :class:`~repro.errors.UnschedulableJobError`; when False it
            is recorded as rejected and the run continues.
        restart_overhead: delay model applied to every rescheduling
            move (the paper's evaluation uses none).
        migration_overhead: delay model applied to MIGRATE moves
            (checkpoint/image transfer); defaults to none.
        migration_dilation: fraction of a migrated job's *remaining*
            work added as overhead, modelling the 10-20% virtualised
            execution penalty the paper cites when discussing VM
            migration (Section 2.3).
        max_minutes: optional hard wall on simulated time; exceeding it
            raises :class:`~repro.errors.SimulationError`.  A guard
            against pathological workloads, not a normal stop.
        record_samples: disable to skip state sampling entirely (saves
            memory in policy-search sweeps that only need job records).
            Grid cells that keep only their summary (no ``keep_result``,
            no ``check_invariants``, no instrumentation) run with it off
            whatever the config says; see ``_simulate_task`` in
            :mod:`repro.experiments.parallel`.
        check_invariants: run deep state validation at every sample
            tick.  Very slow; meant for tests.
        faults: the :class:`~repro.faults.FaultConfig` fault model
            (machine churn, pool outages, transient job failures).
            Defaults to the disabled :data:`~repro.faults.NO_FAULTS`,
            in which case the engine takes the exact pre-fault code
            paths and the field is excluded from cache keys — see
            ``docs/robustness.md``.
        instrumentation: the typed
            :class:`~repro.telemetry.Instrumentation` aggregate — a
            tuple of event observers that all receive every simulation
            event, an optional
            :class:`~repro.telemetry.MetricsRegistry` the engine
            records metrics into, and a profiler switch.  Defaults to
            the disabled :data:`~repro.telemetry.NO_INSTRUMENTATION`.
            Telemetry is strictly read-only: enabling it never changes
            a :class:`~repro.simulator.results.SimulationResult`.
        observer: removed single-observer field.  It went through a
            deprecation cycle (warn-and-fold); a non-``None`` value now
            raises :class:`~repro.errors.ConfigurationError` with the
            migration hint.  Use
            ``instrumentation=Instrumentation(observers=(obs,))``.
    """

    sample_interval: float = 1.0
    vpm_count: int = 1
    seed: int = 0
    strict: bool = True
    restart_overhead: RestartOverhead = field(default_factory=lambda: NO_OVERHEAD)
    migration_overhead: RestartOverhead = field(default_factory=lambda: NO_OVERHEAD)
    migration_dilation: float = 0.0
    max_minutes: Optional[float] = None
    record_samples: bool = True
    check_invariants: bool = False
    faults: FaultConfig = NO_FAULTS
    instrumentation: Instrumentation = NO_INSTRUMENTATION
    observer: Optional[object] = None

    def __post_init__(self) -> None:
        if not isinstance(self.instrumentation, Instrumentation):
            raise ConfigurationError(
                "instrumentation must be an Instrumentation instance, "
                f"got {type(self.instrumentation).__name__}"
            )
        if not isinstance(self.faults, FaultConfig):
            raise ConfigurationError(
                f"faults must be a FaultConfig instance, got {type(self.faults).__name__}"
            )
        if self.observer is not None:
            raise ConfigurationError(
                "SimulationConfig(observer=...) was removed after its "
                "deprecation cycle; pass "
                "instrumentation=Instrumentation(observers=(obs,)) instead"
            )
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.vpm_count < 1:
            raise ConfigurationError(f"vpm_count must be >= 1, got {self.vpm_count}")
        if self.max_minutes is not None and self.max_minutes <= 0:
            raise ConfigurationError(
                f"max_minutes must be > 0 when set, got {self.max_minutes}"
            )
        if self.migration_dilation < 0:
            raise ConfigurationError(
                f"migration_dilation must be >= 0, got {self.migration_dilation}"
            )
