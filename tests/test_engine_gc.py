"""The engine and Python's cyclic garbage collector.

:meth:`SimulationEngine.run` pauses the cyclic collector for its event
loop, because a run makes no cyclic garbage: every object it drops is
freed by reference counting.  The engine's own references back to
itself (its handler table of bound methods and its ``LiveSystemView``)
are dropped once the loop ends, so a finished engine is freed by
reference counting too, not left for a full collection.  These tests
pin both halves: no run leaves cyclic garbage, the collector is paused
during the loop and restored after it, and repeated replays in one
process do not accumulate objects.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro
from repro.errors import SimulationError
from repro.faults import FaultConfig, MachineChurn
from repro.policies import policy_from_spec
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.online import OnlineResults
from repro.simulator.results import RecordingSink
from repro.telemetry import Instrumentation
from repro.workload.cluster import ClusterTemplate
from repro.workload.distributions import Exponential, RandomStreams
from repro.workload.trace import Trace
from repro.workload.traces import (
    default_replay_spec,
    generate_google_fixture,
    generate_swf_fixture,
)

from conftest import make_cluster, make_job

POLICIES = ("NoRes", "ResSusUtil", "ResSusWaitUtil", "ResSusRand", "dfrs", "migration_cost")

#: Jobs kept from the scenario: enough for suspensions, restarts,
#: fractional shares, migrations and fault kills in every cell.
JOBS = 300


@pytest.fixture(scope="module")
def scenario():
    built = repro.high_suspension(scale=0.05, seed=11)
    return Trace(built.trace.jobs[:JOBS]), built.cluster, built.wait_threshold


def _config(faults: bool) -> SimulationConfig:
    if not faults:
        return SimulationConfig(strict=False, seed=3)
    return SimulationConfig(
        strict=False,
        seed=3,
        faults=FaultConfig(
            machine_churn=MachineChurn(mtbf=Exponential(3000.0), mttr=Exponential(60.0)),
            job_failure_probability=0.1,
        ),
    )


def _cyclic_garbage(run) -> int:
    """Objects a full collection finds unreachable after ``run()``.

    ``run`` builds an engine, runs it and drops it with its result
    before returning, so whatever is left is garbage only a cycle keeps.
    """
    gc.collect()
    run()
    return gc.collect()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("sink", [RecordingSink, OnlineResults])
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("spec", POLICIES)
    def test_policy_run_leaves_no_cycles(self, scenario, spec, faults, sink):
        trace, cluster, wait_threshold = scenario

        def run():
            policy = policy_from_spec(spec, defaults={"wait_threshold": wait_threshold})
            engine = SimulationEngine(
                trace, cluster, policy=policy, config=_config(faults), sink=sink()
            )
            assert engine.run() is not None

        assert _cyclic_garbage(run) == 0

    @pytest.mark.parametrize("fmt", ["swf", "google"])
    def test_streaming_replay_leaves_no_cycles(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        template = ClusterTemplate(scale=0.02)
        cluster = template.build(RandomStreams(2010))
        write = generate_swf_fixture if fmt == "swf" else generate_google_fixture
        write(path, 400, seed=6, target_cores=cluster.total_cores)
        spec = default_replay_spec(template)

        def run():
            sink = repro.run_streaming(
                spec.replay(path, fmt), cluster, config=SimulationConfig(strict=False)
            )
            assert sink.job_count > 0

        assert _cyclic_garbage(run) == 0


class _GcProbe:
    """An event tap that records whether the collector is on at each event."""

    def __init__(self) -> None:
        self.states = set()

    def on_event(self, event) -> None:
        self.states.add(gc.isenabled())


def _probed_engine(jobs) -> tuple:
    probe = _GcProbe()
    config = SimulationConfig(strict=False, instrumentation=Instrumentation(observers=(probe,)))
    return SimulationEngine(iter(jobs), make_cluster(), config=config), probe


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on and leave it on afterwards."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.usefixtures("collector_enabled")
class TestCollectorState:
    def test_paused_during_the_run_and_restored_on_return(self):
        engine, probe = _probed_engine([make_job(i, submit=float(i)) for i in range(20)])
        engine.run()
        assert probe.states == {False}
        assert gc.isenabled()

    def test_restored_when_the_run_raises(self):
        jobs = [make_job(0, submit=50.0), make_job(1, submit=10.0)]
        engine, probe = _probed_engine(jobs)
        with pytest.raises(SimulationError, match="not sorted"):
            engine.run()
        assert probe.states == {False}
        assert gc.isenabled()

    def test_a_caller_disabled_collector_stays_disabled(self):
        engine, probe = _probed_engine([make_job(i, submit=float(i)) for i in range(20)])
        gc.disable()
        engine.run()
        assert probe.states == {False}
        assert not gc.isenabled()

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_finished_engine_is_freed_by_reference_counting(self, raises):
        if raises:
            jobs = [make_job(0, submit=50.0), make_job(1, submit=10.0)]
        else:
            jobs = [make_job(i, submit=float(i)) for i in range(20)]
        engine, _ = _probed_engine(jobs)
        gc.disable()  # only reference counting may free it
        try:
            engine.run()
        except SimulationError:
            assert raises
        else:
            assert not raises
        alive = weakref.ref(engine)
        del engine
        assert alive() is None


def test_repeated_replays_do_not_accumulate_objects(tmp_path):
    path = tmp_path / "t.swf"
    template = ClusterTemplate(scale=0.05)
    cluster = template.build(RandomStreams(2010))
    generate_swf_fixture(path, 1500, seed=4, target_cores=cluster.total_cores)
    spec = default_replay_spec(template)

    def replay() -> int:
        sink = repro.run_streaming(
            spec.replay(path, "swf"), cluster, config=SimulationConfig(strict=False)
        )
        assert sink.job_count > 0
        del sink
        return len(gc.get_objects())

    gc.collect()
    first = replay()
    for _ in range(4):
        last = replay()
    # Each dead engine a cycle kept alive would hold over a thousand
    # tracked objects (its pools, machines, queues, RNGs and sink).
    assert last - first <= 50
