"""Pinned Prometheus exports: the engine's metric schema, byte for byte.

Four smoke runs with a metrics registry and profiling off are exported
with :func:`~repro.telemetry.to_prometheus` and hashed.  One runs the
paper's *ResSusWaitUtil* under machine churn and transient job
failures (fault, policy-decision and queue-pop families); one runs a
duplication policy (duplicate attempts and their cancellation); one
migrates suspended jobs while the first pool blacks out on top of the
churn (outage kills, a drained wait queue, migration-closed
suspensions); and one runs DFRS's fractional shares under machine
churn (suspensions closed by a fractional finish).  Any change to a
family name, a help string, a label order, a counted event or a
recorded value flips a digest.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.core.policies import DuplicateSuspended, MigrateSuspended, res_sus_wait_util
from repro.core.selectors import LowestUtilizationSelector
from repro.faults import NO_FAULTS, FaultConfig, MachineChurn, PoolOutage
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation, MetricsRegistry, to_prometheus
from repro.workload.distributions import Exponential

GOLDEN = {
    "res_sus_wait_util+faults": "4a82626224fdd9911360ec56ea7af423b2f81cc00e35e309f4297c4110ac17b6",
    "dup_sus": "934e87a1e862017f9718015765abbf63ed18e1de79c30bbdff31662a70eab92b",
    "migrate+outage": "3eead6e64927cd7d62a55783ba087e7afe08e75272278588d65a377b3bb4ec14",
    "dfrs+churn": "1b963b8583ace89a7afb61886edaabcfa8ab4e2a9409d82cb29e75e593af7824",
}


def _churn() -> MachineChurn:
    return MachineChurn(mtbf=Exponential(3000.0), mttr=Exponential(60.0))


def _faults(**extra) -> FaultConfig:
    return FaultConfig(machine_churn=_churn(), job_failure_probability=0.05, **extra)


def _export(scenario, policy, faults) -> str:
    registry = MetricsRegistry()
    repro.simulate(
        scenario,
        policy,
        config=SimulationConfig(
            strict=False,
            faults=faults,
            instrumentation=Instrumentation(metrics=registry),
        ),
    )
    return to_prometheus(registry)


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_prometheus_digest(smoke_scenario, cell):
    if cell == "dup_sus":
        text = _export(
            smoke_scenario, DuplicateSuspended(LowestUtilizationSelector()), NO_FAULTS
        )
    elif cell == "migrate+outage":
        # The window catches one job waiting in the first pool's queue.
        outage = PoolOutage(smoke_scenario.cluster.pool_ids[0], 2580.0, 300.0)
        text = _export(
            smoke_scenario,
            MigrateSuspended(LowestUtilizationSelector()),
            _faults(pool_outages=(outage,)),
        )
    elif cell == "dfrs+churn":
        text = _export(
            smoke_scenario, repro.FractionalSharePolicy(), FaultConfig(machine_churn=_churn())
        )
    else:
        text = _export(
            smoke_scenario, res_sus_wait_util(smoke_scenario.wait_threshold), _faults()
        )
    assert "repro_engine_queue_events_total" in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[cell]
