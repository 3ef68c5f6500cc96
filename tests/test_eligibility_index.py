"""The cluster's shared static-eligibility index against a naive scan.

:class:`~repro.workload.cluster.EligibilityIndex` answers "which pools,
and which machines in each, could ever run this job" once per cluster
object.  Hypothesis builds mixed clusters (OS families, core counts,
memory sizes) and random job signatures and whitelists; every answer
must equal a plain :func:`machine_eligible` scan, also after the index
and the runtime pools overflow their cap and clear.  Runs sharing one
cluster object must equal a run on a freshly built equal cluster, and
the index must never travel in a pickle.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.benchtrack import result_digest
from repro.experiments.cache import stable_hash
from repro.schedulers.eligibility import machine_eligible
from repro.simulator.config import SimulationConfig
from repro.simulator.pool import PhysicalPool
from repro.workload.cluster import ClusterSpec, MachineSpec, PoolSpec

from conftest import make_job

OS_FAMILIES = ("linux", "windows")
CORES = (1, 2, 4, 8, 16)
MEMORY = (2.0, 8.0, 16.0, 32.0, 64.0)

_machine_shapes = st.tuples(
    st.sampled_from(OS_FAMILIES), st.sampled_from(CORES), st.sampled_from(MEMORY)
)


@st.composite
def clusters(draw) -> ClusterSpec:
    n_pools = draw(st.integers(1, 5))
    pools = []
    for p in range(n_pools):
        shapes = draw(st.lists(_machine_shapes, min_size=1, max_size=8))
        pools.append(
            PoolSpec(
                f"p{p}",
                tuple(
                    MachineSpec(f"p{p}/m{i}", f"p{p}", cores, memory, os_family=os_family)
                    for i, (os_family, cores, memory) in enumerate(shapes)
                ),
            )
        )
    return ClusterSpec(pools)


@st.composite
def jobs(draw, pool_ids):
    whitelist = draw(
        st.none() | st.lists(st.sampled_from(pool_ids), min_size=1, unique=True).map(tuple)
    )
    return make_job(
        0,
        cores=draw(st.sampled_from(CORES)),
        memory_gb=draw(st.sampled_from(MEMORY)),
        os_family=draw(st.sampled_from(OS_FAMILIES)),
        candidate_pools=whitelist,
    )


def _naive_positions(cluster: ClusterSpec, job) -> dict:
    found = {}
    for pool in cluster:
        hits = tuple(i for i, m in enumerate(pool.machines) if machine_eligible(m, job))
        if hits:
            found[pool.pool_id] = hits
    return found


def _naive_candidates(cluster: ClusterSpec, job) -> tuple:
    return tuple(
        pool_id
        for pool_id in _naive_positions(cluster, job)
        if job.candidate_pools is None or pool_id in job.candidate_pools
    )


@given(data=st.data(), cluster=clusters(), cap=st.sampled_from((2, 3, 5, 4096)))
@settings(max_examples=150, deadline=None)
def test_index_matches_naive_scan(data, cluster, cap):
    index = cluster.eligibility
    index.cap = cap  # small caps force clears between lookups
    runtime = [PhysicalPool(pool, eligibility=index) for pool in cluster]
    queries = data.draw(st.lists(jobs(cluster.pool_ids), min_size=1, max_size=25))
    for job in queries * 2:  # repeats hit entries, or rebuild cleared ones
        positions = index.positions(job)
        assert positions == _naive_positions(cluster, job)
        assert list(positions) == [p for p in cluster.pool_ids if p in positions]
        assert index.candidates(job) == _naive_candidates(cluster, job)
        assert len(index) <= cap
        for pool in runtime:
            expected = tuple(m for m in pool.machines if machine_eligible(m.spec, job))
            assert pool.eligible_machines(job) == expected
            assert len(pool._eligible_machines) <= cap


def test_equal_keys_share_one_tuple_until_a_clear():
    cluster = ClusterSpec([PoolSpec("p0", (MachineSpec("p0/m0", "p0", 4, 16.0),))])
    index = cluster.eligibility
    first = index.candidates(make_job(0))
    assert index.candidates(make_job(1)) is first
    index.cap = 1
    index.candidates(make_job(2, cores=2))  # overflows: both maps clear
    again = index.candidates(make_job(3))
    assert again == first and again is not first


def test_runs_sharing_a_cluster_match_a_fresh_cluster():
    scenario = repro.smoke()
    config = SimulationConfig(strict=False, record_samples=False)

    def digest(cluster):
        return result_digest(
            repro.run_simulation(
                scenario.trace, cluster, policy=repro.res_sus_util(), config=config
            )
        )

    shared = scenario.cluster
    first, second = digest(shared), digest(shared)
    assert len(shared.eligibility) > 0
    fresh = repro.smoke().cluster
    assert fresh == shared and len(fresh.eligibility) == 0
    assert first == second == digest(fresh)


def test_pickles_equality_and_hashes_ignore_the_index():
    scenario = repro.smoke()
    cluster = scenario.cluster
    before = pickle.dumps(cluster, protocol=pickle.HIGHEST_PROTOCOL)
    hashed = stable_hash(tuple(cluster))
    for job in list(scenario.trace)[:50]:
        cluster.eligibility.candidates(job)
    assert len(cluster.eligibility) > 0
    blob = pickle.dumps(cluster, protocol=pickle.HIGHEST_PROTOCOL)
    assert blob == before
    copy = pickle.loads(blob)
    assert "eligibility" not in vars(copy)
    assert copy == cluster and stable_hash(tuple(copy)) == hashed
    assert len(copy.eligibility) == 0
