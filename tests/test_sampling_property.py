"""Property: state sampling is a pure read of the engine.

Grid cells that keep only a summary run with ``record_samples=False``
(see ``_simulate_task`` in :mod:`repro.experiments.parallel`).  That is
sound only if the sampler never changes what the engine does, so this
test runs Hypothesis-generated small scenarios — random clusters,
submission bursts and priorities, every paper policy plus ``dfrs`` and
``migration_cost``, with and without machine churn and pool outages —
once with samples and once without, and requires identical per-job
records and fault counters.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.faults import FaultConfig, PoolOutage
from repro.policies import policy_from_spec
from repro.simulator.config import SimulationConfig
from repro.workload.cluster import ClusterSpec
from repro.workload.trace import Trace

from conftest import make_job, make_pool

POLICY_SPECS = (
    "NoRes",
    "ResSusUtil",
    "ResSusRand",
    "ResSusWaitUtil",
    "ResSusWaitRand",
    "dfrs",
    "migration_cost",
)


@st.composite
def clusters(draw):
    """One to three pools of one or two identical machines each."""
    pools = [
        make_pool(
            f"p{i}",
            draw(st.integers(1, 2)),
            cores=draw(st.sampled_from((2, 4, 8))),
            memory_gb=draw(st.sampled_from((8.0, 16.0))),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    return ClusterSpec(pools)


@st.composite
def bursts(draw):
    """Jobs arriving in a few bursts, with mixed priorities and sizes."""
    jobs = []
    for start in draw(st.lists(st.integers(0, 300), min_size=1, max_size=4)):
        for offset in draw(st.lists(st.integers(0, 20), min_size=1, max_size=12)):
            jobs.append(
                (
                    float(start + offset),
                    float(draw(st.integers(5, 120))),
                    draw(st.integers(0, 3)),
                    draw(st.sampled_from((1, 1, 2, 4))),
                    float(draw(st.sampled_from((1, 2, 6)))),
                )
            )
    jobs.sort(key=lambda job: job[0])
    return [
        make_job(i, submit=submit, runtime=runtime, priority=priority,
                 cores=cores, memory_gb=memory)
        for i, (submit, runtime, priority, cores, memory) in enumerate(jobs)
    ]


@st.composite
def fault_models(draw, pool_count: int):
    """No faults, machine churn, pool outages, or both."""
    churn = draw(st.booleans())
    outages = tuple(
        PoolOutage(
            f"p{draw(st.integers(0, pool_count - 1))}",
            float(draw(st.integers(0, 300))),
            float(draw(st.integers(1, 120))),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    if churn:
        return FaultConfig.with_exponential_churn(
            float(draw(st.integers(150, 1500))),
            float(draw(st.integers(5, 60))),
            pool_outages=outages,
        )
    return FaultConfig(pool_outages=outages)


@st.composite
def scenarios(draw):
    cluster = draw(clusters())
    return (
        cluster,
        draw(bursts()),
        draw(st.sampled_from(POLICY_SPECS)),
        draw(fault_models(len(cluster.pool_ids))),
        draw(st.sampled_from((0.5, 1.0, 7.5))),
        draw(st.integers(0, 2**16)),
    )


@given(scenario=scenarios())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_records_and_fault_stats_do_not_depend_on_sampling(scenario):
    cluster, jobs, spec, faults, interval, seed = scenario
    results = []
    for record_samples in (True, False):
        config = SimulationConfig(
            strict=False,
            seed=seed,
            sample_interval=interval,
            record_samples=record_samples,
            faults=faults,
        )
        results.append(
            repro.run_simulation(
                Trace(jobs),
                cluster,
                policy=policy_from_spec(spec, defaults={"wait_threshold": 15.0}),
                config=config,
            )
        )
    sampled, lean = results
    assert sampled.samples and lean.samples == ()
    assert lean.records == sampled.records
    assert lean.fault_stats == sampled.fault_stats
