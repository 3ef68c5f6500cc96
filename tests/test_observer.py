"""Tests for the event-observation API (ASCA-style event logs)."""


import repro
from repro.faults import FaultConfig, MachineChurn
from repro.simulator.observer import (
    EVENT_TYPES,
    EventLog,
    JsonlEventWriter,
    SimEvent,
)
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation
from repro.workload.cluster import ClusterSpec
from repro.workload.distributions import Exponential

from conftest import make_cluster, make_job, make_pool, make_trace


def run_logged(jobs, cluster=None, policy=None, **config_kwargs):
    log = EventLog()
    result = repro.run_simulation(
        make_trace(jobs),
        cluster or make_cluster(),
        policy=policy,
        config=SimulationConfig(
            strict=False,
            instrumentation=Instrumentation(observers=(log,)),
            **config_kwargs,
        ),
    )
    return result, log


class TestSimEvent:
    def test_as_dict_omits_optionals(self):
        event = SimEvent(minute=1.0, event="submit", job_id=3)
        assert event.as_dict() == {"minute": 1.0, "event": "submit", "job_id": 3}

    def test_as_dict_includes_context(self):
        event = SimEvent(minute=1.0, event="start", job_id=3, pool_id="p0", detail="x")
        record = event.as_dict()
        assert record["pool_id"] == "p0"
        assert record["detail"] == "x"


class TestEventEmission:
    def test_simple_lifecycle(self):
        _, log = run_logged([make_job(0, runtime=10.0)])
        kinds = [e.event for e in log.for_job(0)]
        assert kinds == ["submit", "start", "finish"]
        assert all(e.event in EVENT_TYPES for e in log.events)

    def test_queueing_lifecycle(self):
        cluster = ClusterSpec([make_pool("p0", 1, cores=1)])
        _, log = run_logged(
            [make_job(0, runtime=10.0), make_job(1, submit=1.0, runtime=5.0)],
            cluster=cluster,
        )
        kinds = [e.event for e in log.for_job(1)]
        assert kinds == ["submit", "queue", "start", "finish"]

    def test_suspension_and_resume(self):
        cluster = ClusterSpec([make_pool("p0", 1, cores=1)])
        jobs = [
            make_job(0, runtime=10.0, priority=0),
            make_job(1, submit=4.0, runtime=6.0, priority=100),
        ]
        _, log = run_logged(jobs, cluster=cluster)
        kinds = [e.event for e in log.for_job(0)]
        assert kinds == ["submit", "start", "suspend", "resume", "finish"]
        (suspend,) = log.of_type("suspend")
        assert suspend.detail == "preempted-by=1"
        assert suspend.minute == 4.0

    def test_restart_events(self):
        cluster = ClusterSpec([make_pool("p0", 1, cores=1), make_pool("p1", 1, cores=1)])
        jobs = [
            make_job(0, runtime=10.0, priority=0, candidate_pools=("p0", "p1")),
            make_job(1, submit=4.0, runtime=6.0, priority=100, candidate_pools=("p0",)),
        ]
        _, log = run_logged(jobs, cluster=cluster, policy=repro.res_sus_util())
        kinds = [e.event for e in log.for_job(0)]
        assert kinds == ["submit", "start", "suspend", "restart", "start", "finish"]
        (restart,) = log.of_type("restart")
        assert restart.pool_id == "p1"
        assert restart.detail == "from=p0"

    def test_event_times_monotone(self, smoke_scenario):
        log = EventLog()
        repro.run_simulation(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            policy=repro.res_sus_wait_util(),
            config=SimulationConfig(
                strict=False,
                record_samples=False,
                instrumentation=Instrumentation(observers=(log,)),
            ),
        )
        minutes = [e.minute for e in log.events]
        assert minutes == sorted(minutes)
        counts = log.counts()
        assert counts["submit"] == len(smoke_scenario.trace)
        assert counts["finish"] >= len(smoke_scenario.trace)
        assert counts["start"] >= counts["finish"]

    def test_vocabulary_covers_fractional_and_fault_events(self, smoke_scenario):
        log = EventLog()
        repro.run_simulation(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            policy=repro.policy_from_spec("dfrs"),
            config=SimulationConfig(
                strict=False,
                instrumentation=Instrumentation(observers=(log,)),
                faults=FaultConfig(
                    machine_churn=MachineChurn(
                        mtbf=Exponential(3000.0), mttr=Exponential(60.0)
                    )
                ),
            ),
        )
        counts = log.counts()
        assert counts["fraction"] > 0
        assert counts["fault-kill"] > 0
        assert all(e.event in EVENT_TYPES for e in log.events)

    def test_no_observer_costs_nothing(self):
        # just confirms the default path still runs (no attribute errors)
        result = repro.run_simulation(
            make_trace([make_job(0)]), make_cluster(),
            config=SimulationConfig(strict=False),
        )
        assert len(result.records) == 1


class TestJsonlWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = JsonlEventWriter(path)
        repro.run_simulation(
            make_trace([make_job(0, runtime=5.0)]),
            make_cluster(),
            config=SimulationConfig(
                strict=False, instrumentation=Instrumentation(observers=(writer,))
            ),
        )
        assert writer.written >= 3
        events = JsonlEventWriter.read(path)
        assert [e.event for e in events] == ["submit", "start", "finish"]
        assert events[0].job_id == 0
