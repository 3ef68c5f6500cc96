"""Multi-site scenario construction.

Builds a NetBatch deployment of several geographically separated sites:
each site is a scaled cluster of its own (pool ids prefixed with the
site name), one site's large pools receive the high-priority burst, and
a :class:`~repro.sites.topology.SiteTopology` carries the WAN transfer
latencies between sites.  This is the substrate for the inter-site
rescheduling experiments the paper's conclusion proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from ..workload.arrivals import BurstProcess
from ..workload.cluster import ClusterSpec, ClusterTemplate, PoolSpec
from ..workload.distributions import RandomStreams
from ..workload.generator import WorkloadGenerator, WorkloadModel
from ..workload.scenarios import DEFAULT_WAIT_THRESHOLD
from ..workload.trace import Trace
from .topology import SiteSpec, SiteTopology

__all__ = ["MultiSiteScenario", "multi_site_scenario", "rename_pools"]


def rename_pools(cluster: ClusterSpec, prefix: str) -> ClusterSpec:
    """A copy of ``cluster`` with every pool and machine id prefixed."""
    if not prefix:
        raise ConfigurationError("prefix may not be empty")
    pools = []
    for pool in cluster:
        new_id = f"{prefix}/{pool.pool_id}"
        machines = tuple(
            replace(m, machine_id=f"{prefix}/{m.machine_id}", pool_id=new_id)
            for m in pool.machines
        )
        pools.append(PoolSpec(pool_id=new_id, machines=machines))
    return ClusterSpec(pools)


@dataclass(frozen=True)
class MultiSiteScenario:
    """A ready-to-simulate multi-site experiment condition.

    Attributes:
        name: scenario label.
        topology: the site topology (latencies, pool-site mapping).
        cluster: the flattened cluster the simulator runs on.
        trace: the workload; the burst targets the first site's large
            pools.
        seed: the workload seed used.
        burst_site: id of the site the burst lands on.
    """

    name: str
    topology: SiteTopology
    cluster: ClusterSpec
    trace: Trace
    seed: int
    burst_site: str

    #: The waiting-job threshold a policy spec defaults to, as for a
    #: single-site scenario; a grid cell's cache key reads it.
    wait_threshold = DEFAULT_WAIT_THRESHOLD


def multi_site_scenario(
    site_count: int = 2,
    scale: float = 0.2,
    seed: int = 2010,
    transfer_minutes: float = 45.0,
    horizon: float = 10_080.0,
    utilization: float = 0.34,
    burst_overload: float = 1.1,
    burst_duration: float = 1000.0,
) -> MultiSiteScenario:
    """Build a multi-site busy week with the burst confined to site 0.

    Each site is a scaled-down NetBatch site (half the single-site
    template per site so total capacity stays comparable); the
    high-priority burst hits the *first* site's large pools, leaving
    the other sites "barely utilized" — the exact imbalance that makes
    inter-site rescheduling attractive.
    """
    if site_count < 2:
        raise ConfigurationError(f"site_count must be >= 2, got {site_count}")
    template = ClusterTemplate(
        size_classes=(("large", 2, 80), ("medium", 4, 80), ("small", 4, 36)),
        windows_pool_count=1,
        scale=scale,
    )
    streams = RandomStreams(seed)
    sites = []
    for index in range(site_count):
        site_id = f"site-{index}"
        site_cluster = rename_pools(
            template.build(streams.spawn(site_id)), site_id
        )
        sites.append(SiteSpec(site_id=site_id, pools=tuple(site_cluster.pools)))
    topology = SiteTopology(sites, transfer_minutes=transfer_minutes)
    cluster = topology.cluster()

    burst_site = sites[0].site_id
    burst_pools = tuple(
        f"{burst_site}/{pid}" for pid in template.large_pool_ids()
    )
    probe = WorkloadModel(
        horizon_minutes=horizon,
        base_rate=1.0,
        burst=BurstProcess(
            mean_gap=1e9,
            mean_duration=burst_duration,
            burst_rate=1.0,
            first_burst_start=1500.0,
            first_burst_duration=burst_duration,
        ),
        burst_pool_choices=burst_pools,
        burst_pools_per_burst=len(burst_pools),
        task_size=12,
    )
    mean_cores = probe.cores.mean()
    base_rate = (
        utilization * cluster.total_cores / (probe.runtime.mean() * mean_cores)
    )
    target_cores = sum(cluster.pool(p).total_cores for p in burst_pools)
    burst_rate = (
        burst_overload * target_cores / (probe.burst_runtime.mean() * mean_cores)
    )
    model = replace(
        probe,
        base_rate=base_rate,
        burst=replace(probe.burst, burst_rate=burst_rate),
    )
    trace = WorkloadGenerator(model, streams.spawn("workload")).generate()
    return MultiSiteScenario(
        name=f"multi-site-{site_count}",
        topology=topology,
        cluster=cluster,
        trace=trace,
        seed=seed,
        burst_site=burst_site,
    )
