"""The one-call simulation facade.

Most users need exactly one entry point::

    from repro import run_simulation, res_sus_util, busy_week

    scenario = busy_week()
    result = run_simulation(
        scenario.trace, scenario.cluster, policy=res_sus_util()
    )

Power users construct :class:`~repro.simulator.engine.SimulationEngine`
directly (e.g. to step events manually in tests).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.policy import ReschedulingPolicy
from ..schedulers.initial import InitialScheduler
from ..workload.cluster import ClusterSpec
from ..workload.trace import Trace, TraceJob
from .config import SimulationConfig
from .engine import SimulationEngine
from .online import OnlineResults
from .results import SimulationResult

__all__ = ["run_simulation", "run_streaming"]


def run_simulation(
    trace: Trace,
    cluster: ClusterSpec,
    *,
    policy: Optional[ReschedulingPolicy] = None,
    initial_scheduler: Optional[InitialScheduler] = None,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate ``trace`` on ``cluster`` and return the results.

    Args:
        trace: the workload (e.g. from a scenario preset or generator).
        cluster: the site to emulate.
        policy: dynamic rescheduling policy; defaults to the paper's
            *NoRes* baseline.
        initial_scheduler: the VPM's initial scheduler; defaults to
            NetBatch's round-robin.
        config: engine knobs; defaults to
            :class:`~repro.simulator.config.SimulationConfig`'s
            paper-faithful settings.

    Returns:
        The :class:`~repro.simulator.results.SimulationResult` with
        per-job records and per-minute state samples.
    """
    engine = SimulationEngine(
        trace,
        cluster,
        policy=policy,
        initial_scheduler=initial_scheduler,
        config=config,
    )
    return engine.run()


def run_streaming(
    feed: Iterable[TraceJob],
    cluster: ClusterSpec,
    *,
    policy: Optional[ReschedulingPolicy] = None,
    initial_scheduler: Optional[InitialScheduler] = None,
    config: Optional[SimulationConfig] = None,
    sink: Optional[OnlineResults] = None,
) -> OnlineResults:
    """Simulate a streaming trace feed with constant-memory results.

    The constant-memory counterpart of :func:`run_simulation`: ``feed``
    is any iterator of :class:`~repro.workload.trace.TraceJob` sorted by
    submission time (e.g. a :class:`~repro.workload.traces.TraceReplaySpec`
    replay of an SWF or Google-cluster log), consumed lazily by the
    engine, and every per-job record is folded into an
    :class:`~repro.simulator.online.OnlineResults` sink the moment the
    job completes.  Peak memory is bounded by the number of jobs *in
    flight*, never by the trace length; the aggregates (and
    ``sink.summary()``) are bit-identical to materialising the same
    trace and calling :func:`~repro.metrics.summary.summarize`.

    Args:
        feed: submission-sorted iterator of trace jobs.
        cluster: the site to emulate.
        policy: rescheduling policy; defaults to the NoRes baseline.
        initial_scheduler: the VPM's initial scheduler.
        config: engine knobs.
        sink: a pre-built sink (e.g. with ``keep_samples=True``);
            defaults to a fresh :class:`OnlineResults`.

    Returns:
        The finalized sink.
    """
    engine = SimulationEngine(
        feed,
        cluster,
        policy=policy,
        initial_scheduler=initial_scheduler,
        config=config,
        sink=sink if sink is not None else OnlineResults(),
    )
    return engine.run()
