"""Golden digests for the state sampler's edge cases.

The per-minute sampler is where float clock arithmetic, idle stretches
and same-minute ties meet: a tick must land on exactly the minute that
repeated ``+ sample_interval`` additions produce, must see every
submission and every queued event at its minute that precedes it, and
must repeat the state unchanged across minutes where nothing happens.
These digests hash every record and every sample of runs chosen to
exercise those paths, so any change to tick minutes, tick order or the
sampled state flips one.  Companion checks pin the ``max_minutes`` wall
inside an idle gap, the sampler stopping at that wall, and the
sampler's metrics against the samples.  Every digest must also hold
with all instrumentation taps on.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import SimulationError
from repro.faults import FaultConfig, MachineChurn, PoolOutage
from repro.policies import policy_from_spec
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation, MetricsRegistry
from repro.workload.cluster import ClusterSpec
from repro.workload.distributions import Exponential
from repro.workload.trace import Trace

from conftest import make_job, make_pool
from test_engine_golden import all_taps, result_digest

#: Jobs kept from the ``high_suspension`` scenario: a busy burst
#: followed by a long drain tail of mostly idle minutes.
JOBS = 400

OUTAGES = (
    PoolOutage("pool-00", 100.0, 300.0),
    PoolOutage("pool-03", 200.0, 60.0),
    PoolOutage("pool-05", 1000.0, 500.0),
)

SCENARIO_CASES = {
    "interval-0.7": ("ResSusUtil", dict(sample_interval=0.7)),
    "interval-5": ("ResSusUtil", dict(sample_interval=5.0)),
    "vpm-3": ("ResSusWaitUtil", dict(vpm_count=3)),
    "pool-outages": (
        "ResSusUtil",
        dict(
            faults=FaultConfig(
                machine_churn=MachineChurn(
                    mtbf=Exponential(3000.0), mttr=Exponential(60.0)
                ),
                pool_outages=OUTAGES,
            )
        ),
    ),
    "outages-interval-0.7": (
        "mig_sus",
        dict(sample_interval=0.7, faults=FaultConfig(pool_outages=OUTAGES)),
    ),
}

SCENARIO_GOLDEN = {
    "interval-0.7": "3ce53b080e927c4ef2cf941ca5471bd96fa53fdcf40c547a67929cf7b16d92d3",
    "interval-5": "2d75a516fa656b4322fe8f1cc24847e08e2e346b0ab775a5422bbb587b038b7b",
    "vpm-3": "40eb4309581926262afe41a985b946a17fc013e9bee5737e7ea1bb8949a473d0",
    "pool-outages": "5d1fba4275c1f8ebe6190093e6a2fcc1ec76f3ea5f82da429e0da484c758d5aa",
    "outages-interval-0.7": (
        "be23d18860ece6627f3a81da7d9e137cabe2575e15c754491bef8b10adc7b84c"
    ),
}


def hand_built_jobs():
    """A few jobs on two 4-core pools, timed onto sample minutes.

    Jobs 0 and 1 finish at minute 3 while job 2 submits there; a long
    idle gap follows; then a high-priority job pinned to ``p1`` preempts
    job 3 there on a whole minute (ResSusUtil moves the victim to
    ``p0``), and the last job finishes on a fractional minute.
    """
    return [
        make_job(0, submit=0.0, runtime=3.0, cores=2),
        make_job(1, submit=0.5, runtime=2.5, cores=2),
        make_job(2, submit=3.0, runtime=1.0, cores=4),
        make_job(3, submit=500.0, runtime=40.0, cores=4, priority=0),
        make_job(
            4, submit=510.0, runtime=10.0, cores=4, priority=100, candidate_pools=("p1",)
        ),
        make_job(5, submit=510.0, runtime=2.1, cores=1),
        make_job(6, submit=900.0, runtime=0.35, cores=1),
    ]


def hand_built_cluster():
    return ClusterSpec([make_pool("p0", 1), make_pool("p1", 1)])


HAND_CASES = {
    ("NoRes", 1.0): "807601d998a55f9e45e973a87892eb0e040fabc96e2280d6c18e612786f67253",
    ("NoRes", 0.7): "16fa9a6ea3832d0afa23df6fccf57c62655fe56c539cd72e3baad710851fa4b8",
    ("ResSusUtil", 1.0): (
        "55c2966771520e02adabe3f059e2683d9194e8023e5d0e4fb4791c33c693a460"
    ),
    ("ResSusUtil", 0.7): (
        "3c08940e3e17de8861dd5e6af46edf463dd6a97813368665fc8750f98a4dedd3"
    ),
    ("ResSusUtil", 2.5): (
        "cfc7baf066e30c4b71fc0a5a96ab39bc7148c269d89db452f3e8c925324a9f2b"
    ),
}


@pytest.fixture(scope="module")
def scenario():
    built = repro.high_suspension(scale=0.05, seed=11)
    return Trace(built.trace.jobs[:JOBS]), built.cluster, built.wait_threshold


def _policy(spec: str, wait_threshold: float):
    return policy_from_spec(spec, defaults={"wait_threshold": wait_threshold})


def _taps(on: bool) -> dict:
    return {"instrumentation": all_taps()} if on else {}


@pytest.mark.parametrize("shape", ["trace", "iterator"])
@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_sampling_digest(scenario, case, shape):
    check_scenario(scenario, case, shape, taps=False)


@pytest.mark.parametrize("shape", ["trace", "iterator"])
@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_sampling_digest_all_taps(scenario, case, shape):
    check_scenario(scenario, case, shape, taps=True)


def check_scenario(scenario, case, shape, taps):
    trace, cluster, wait_threshold = scenario
    spec, overrides = SCENARIO_CASES[case]
    result = repro.run_simulation(
        trace if shape == "trace" else iter(trace),
        cluster,
        policy=_policy(spec, wait_threshold),
        config=SimulationConfig(strict=False, seed=3, **overrides, **_taps(taps)),
    )
    assert result_digest(result) == SCENARIO_GOLDEN[case]


@pytest.mark.parametrize("shape", ["trace", "iterator"])
@pytest.mark.parametrize("spec,interval", sorted(HAND_CASES))
def test_hand_built_sampling_digest(spec, interval, shape):
    check_hand_built(spec, interval, shape, taps=False)


@pytest.mark.parametrize("shape", ["trace", "iterator"])
@pytest.mark.parametrize("spec,interval", sorted(HAND_CASES))
def test_hand_built_sampling_digest_all_taps(spec, interval, shape):
    check_hand_built(spec, interval, shape, taps=True)


def check_hand_built(spec, interval, shape, taps):
    jobs = hand_built_jobs()
    result = repro.run_simulation(
        Trace(jobs) if shape == "trace" else iter(jobs),
        hand_built_cluster(),
        policy=_policy(spec, 30.0),
        config=SimulationConfig(
            sample_interval=interval, check_invariants=True, **_taps(taps)
        ),
    )
    assert result_digest(result) == HAND_CASES[(spec, interval)]


def test_hand_built_ticks_cover_idle_gap():
    result = repro.run_simulation(
        Trace(hand_built_jobs()), hand_built_cluster(), config=SimulationConfig()
    )
    minutes = [sample.minute for sample in result.samples]
    assert minutes == [float(m) for m in range(len(minutes))]
    idle = [s for s in result.samples if 5.0 <= s.minute < 500.0]
    assert len(idle) == 495
    assert all(s.busy_cores == 0 and s.waiting_jobs == 0 for s in idle)


@pytest.mark.parametrize(
    "jobs",
    [
        # The clock sits in a feed gap: nothing queued but the tick.
        [make_job(0, runtime=5.0), make_job(1, submit=1000.0, runtime=5.0)],
        # The clock sits in a queue gap: one long job running.
        [make_job(0, runtime=1000.0)],
    ],
    ids=["feed-gap", "queue-gap"],
)
@pytest.mark.parametrize("interval", [1.0, 0.7])
def test_max_minutes_inside_idle_gap_raises(jobs, interval):
    with pytest.raises(SimulationError, match="max_minutes=500"):
        repro.run_simulation(
            Trace(jobs),
            hand_built_cluster(),
            config=SimulationConfig(max_minutes=500.0, sample_interval=interval),
        )


@pytest.mark.parametrize("record_samples", [True, False])
def test_run_finishing_inside_max_minutes_completes(record_samples):
    # The tick after the last sample inside the bound (minute 105) lies
    # past max_minutes=100; it is never queued, so the run ends with its
    # one job at minute 99 whether or not it samples.
    result = repro.run_simulation(
        Trace([make_job(0, runtime=99.0)]),
        ClusterSpec([make_pool("p0", 1)]),
        config=SimulationConfig(
            sample_interval=7.0, max_minutes=100.0, record_samples=record_samples
        ),
    )
    assert [r.finish_minute for r in result.records] == [99.0]
    minutes = [sample.minute for sample in result.samples]
    assert minutes == ([7.0 * k for k in range(15)] if record_samples else [])


@pytest.mark.parametrize("interval", [1.0, 0.7])
def test_sampler_metrics_match_samples(scenario, interval):
    trace, cluster, wait_threshold = scenario
    registry = MetricsRegistry()
    result = repro.run_simulation(
        trace,
        cluster,
        policy=_policy("ResSusUtil", wait_threshold),
        config=SimulationConfig(
            strict=False,
            sample_interval=interval,
            instrumentation=Instrumentation(metrics=registry),
        ),
    )
    assert registry.get("repro_sim_samples_total").value == len(result.samples)
    last = result.samples[-1]
    assert registry.get("repro_cluster_utilization").value == (
        last.busy_cores / last.total_cores
    )
    for index, pool_id in enumerate(result.pool_ids):
        assert registry.get("repro_pool_busy_cores").labels(pool_id).value == (
            last.per_pool_busy[index]
        )
        assert registry.get("repro_pool_waiting_jobs").labels(pool_id).value == (
            last.per_pool_waiting[index]
        )
        assert registry.get("repro_pool_suspended_jobs").labels(pool_id).value == (
            last.per_pool_suspended[index]
        )
