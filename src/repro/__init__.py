"""repro: a reproduction of "On the Feasibility of Dynamic Rescheduling
on the Intel Distributed Computing Platform" (Middleware 2010).

The package provides:

* :mod:`repro.workload` — synthetic NetBatch-like traces and clusters
  (the substitute for Intel's proprietary inputs);
* :mod:`repro.simulator` — a from-scratch hybrid event/sampling
  simulator of the NetBatch middleware (the ASCA stand-in);
* :mod:`repro.core` — the paper's contribution: dynamic rescheduling
  policies for suspended and waiting jobs;
* :mod:`repro.policies` — the policy plugin registry: spec strings
  (``"dfrs:share=0.5"``), entry-point discovery, and the fractional /
  migration-cost policy families (see ``docs/policies.md``);
* :mod:`repro.schedulers` — the VPM initial schedulers;
* :mod:`repro.metrics` / :mod:`repro.analysis` — the paper's metrics
  and trace analyses;
* :mod:`repro.experiments` — one function per paper table and figure.

Quickstart::

    import repro

    scenario = repro.busy_week(scale=0.1)
    baseline = repro.simulate(scenario)
    rescheduled = repro.simulate(scenario, "ResSusUtil")
    print(repro.render_table([
        repro.summarize(baseline), repro.summarize(rescheduled)
    ]))

To observe a run, attach typed instrumentation (see
:mod:`repro.telemetry` and ``docs/observability.md``)::

    registry = repro.MetricsRegistry()
    repro.simulate(
        scenario, "ResSusUtil",
        instrumentation=repro.Instrumentation(metrics=registry),
    )
"""

from ._version import __version__
from .api import run_experiment, simulate
from .core import (
    DEFAULT_WAIT_THRESHOLD,
    NO_OVERHEAD,
    PAPER_POLICY_NAMES,
    Decision,
    DuplicateSuspended,
    LowestUtilizationSelector,
    MigrateSuspended,
    NoRescheduling,
    PoolSelector,
    PoolSnapshot,
    PredictedWaitSelector,
    RandomSelector,
    RescheduleSuspended,
    RescheduleSuspendedAndWaiting,
    RescheduleWaitingOnly,
    ReschedulingPolicy,
    RestartOverhead,
    ShortestQueueSelector,
    StaticSystemView,
    SystemView,
    WeightedSelector,
    no_res,
    res_sus_rand,
    res_sus_util,
    res_sus_wait_rand,
    res_sus_wait_util,
)
from .errors import (
    ClusterError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    UnknownPolicyError,
    UnschedulableJobError,
)
from .policies import (
    FractionalSharePolicy,
    MigrationCostPolicy,
    PolicySpec,
    available_policies,
    available_selectors,
    canonical_spec,
    policy_from_spec,
    register_policy,
    register_selector,
    selector_from_spec,
)
from .metrics import (
    EmpiricalCDF,
    PerformanceSummary,
    WasteBreakdown,
    aggregate_samples,
    render_table,
    render_waste_components,
    summarize,
)
from .schedulers import (
    InitialScheduler,
    RoundRobinScheduler,
    UtilizationBasedScheduler,
    initial_scheduler_from_name,
)
from .experiments.checkpoint import GridCheckpoint
from .experiments.fault_sweep import FaultSweep, fault_sweep
from .experiments.runner import ExperimentCell, ExperimentRunner
from .faults import NO_FAULTS, FaultConfig, FaultStats, MachineChurn, PoolOutage, RetryPolicy
from .simulator import (
    JobRecord,
    OnlineResults,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
    StateSample,
    StreamingHistogram,
    run_simulation,
    run_streaming,
)
from .telemetry import (
    Instrumentation,
    MetricsRegistry,
    ProgressReporter,
)
from .workload import (
    ClusterSpec,
    ClusterTemplate,
    RandomStreams,
    Scenario,
    Trace,
    TraceJob,
    WorkloadGenerator,
    WorkloadModel,
    busy_week,
    generate_trace,
    high_load,
    high_suspension,
    smoke,
    year,
)

__all__ = [
    "__version__",
    # facade
    "simulate",
    "run_experiment",
    # experiments
    "ExperimentCell",
    "ExperimentRunner",
    "GridCheckpoint",
    "FaultSweep",
    "fault_sweep",
    # fault injection
    "NO_FAULTS",
    "FaultConfig",
    "FaultStats",
    "MachineChurn",
    "PoolOutage",
    "RetryPolicy",
    # telemetry
    "Instrumentation",
    "MetricsRegistry",
    "ProgressReporter",
    # core
    "DEFAULT_WAIT_THRESHOLD",
    "NO_OVERHEAD",
    "PAPER_POLICY_NAMES",
    "Decision",
    "DuplicateSuspended",
    "LowestUtilizationSelector",
    "MigrateSuspended",
    "NoRescheduling",
    "PoolSelector",
    "PoolSnapshot",
    "PredictedWaitSelector",
    "RandomSelector",
    "RescheduleSuspended",
    "RescheduleSuspendedAndWaiting",
    "RescheduleWaitingOnly",
    "ReschedulingPolicy",
    "RestartOverhead",
    "ShortestQueueSelector",
    "StaticSystemView",
    "SystemView",
    "WeightedSelector",
    "no_res",
    "res_sus_rand",
    "res_sus_util",
    "res_sus_wait_rand",
    "res_sus_wait_util",
    # policy registry
    "FractionalSharePolicy",
    "MigrationCostPolicy",
    "PolicySpec",
    "available_policies",
    "available_selectors",
    "canonical_spec",
    "policy_from_spec",
    "register_policy",
    "register_selector",
    "selector_from_spec",
    # errors
    "ClusterError",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "UnknownPolicyError",
    "UnschedulableJobError",
    # metrics
    "EmpiricalCDF",
    "PerformanceSummary",
    "WasteBreakdown",
    "aggregate_samples",
    "render_table",
    "render_waste_components",
    "summarize",
    # schedulers
    "InitialScheduler",
    "RoundRobinScheduler",
    "UtilizationBasedScheduler",
    "initial_scheduler_from_name",
    # simulator
    "JobRecord",
    "OnlineResults",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "StateSample",
    "StreamingHistogram",
    "run_simulation",
    "run_streaming",
    # workload
    "ClusterSpec",
    "ClusterTemplate",
    "RandomStreams",
    "Scenario",
    "Trace",
    "TraceJob",
    "WorkloadGenerator",
    "WorkloadModel",
    "busy_week",
    "generate_trace",
    "high_load",
    "high_suspension",
    "smoke",
    "year",
]
