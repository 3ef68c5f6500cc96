"""Multi-site topology: sites, pool-to-site mapping, transfer latencies.

NetBatch is "deployed live on tens of thousands of machines that are
globally distributed at various data centers ... hundreds of machine
clusters called pools, distributed globally at dozens of data centers
with varying wide-area network characteristics" (Sections 1-2), and the
paper's conclusion names **inter-site rescheduling** as future work.

A :class:`SiteTopology` layers sites over an ordinary
:class:`~repro.workload.cluster.ClusterSpec`: the simulator stays
single-cluster (pools are pools), while the topology answers the two
questions inter-site policies need — *which site does this pool belong
to* and *how long does moving a job between these pools take*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ClusterError, ConfigurationError
from ..workload.cluster import ClusterSpec, PoolSpec

__all__ = ["SiteSpec", "SiteTopology"]


@dataclass(frozen=True)
class SiteSpec:
    """One site: a named group of physical pools."""

    site_id: str
    pools: Tuple[PoolSpec, ...]

    def __post_init__(self) -> None:
        if not self.site_id:
            raise ClusterError("site_id may not be empty")
        if not self.pools:
            raise ClusterError(f"site {self.site_id}: needs at least one pool")

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        """Pool ids in the site, in declaration order."""
        return tuple(p.pool_id for p in self.pools)


class SiteTopology:
    """Sites over a flat cluster, with pairwise transfer latencies.

    Args:
        sites: the sites, in declaration order (which becomes the
            round-robin order of the flattened cluster).
        transfer_minutes: minutes to move a job between two *different*
            sites, either a constant or a mapping from unordered site
            pairs (frozensets are not required; both ``(a, b)`` and
            ``(b, a)`` are looked up).  Intra-site moves cost zero.
    """

    def __init__(
        self,
        sites: Sequence[SiteSpec],
        transfer_minutes=30.0,
    ) -> None:
        if not sites:
            raise ClusterError("a topology needs at least one site")
        ids = [s.site_id for s in sites]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate site ids: {sorted(ids)}")
        self._sites: Tuple[SiteSpec, ...] = tuple(sites)
        self._site_of: Dict[str, str] = {}
        for site in self._sites:
            for pool in site.pools:
                if pool.pool_id in self._site_of:
                    raise ClusterError(
                        f"pool {pool.pool_id} appears in more than one site"
                    )
                self._site_of[pool.pool_id] = site.site_id
        if isinstance(transfer_minutes, Mapping):
            self._pair_latency: Optional[Dict[Tuple[str, str], float]] = {}
            for (a, b), minutes in transfer_minutes.items():
                if minutes < 0:
                    raise ConfigurationError("transfer minutes must be >= 0")
                self._pair_latency[(a, b)] = float(minutes)
                self._pair_latency[(b, a)] = float(minutes)
            self._default_latency = None
        else:
            if transfer_minutes < 0:
                raise ConfigurationError("transfer minutes must be >= 0")
            self._pair_latency = None
            self._default_latency = float(transfer_minutes)

    # -- structure ----------------------------------------------------------------

    @property
    def sites(self) -> Tuple[SiteSpec, ...]:
        """The sites, in declaration order."""
        return self._sites

    @property
    def site_ids(self) -> Tuple[str, ...]:
        """Site ids, in declaration order."""
        return tuple(s.site_id for s in self._sites)

    def cluster(self) -> ClusterSpec:
        """The flattened single-cluster view the simulator runs on."""
        pools = [pool for site in self._sites for pool in site.pools]
        return ClusterSpec(pools)

    def site_of(self, pool_id: str) -> str:
        """The site a pool belongs to."""
        try:
            return self._site_of[pool_id]
        except KeyError:
            raise ClusterError(f"pool {pool_id!r} is not in this topology") from None

    def pools_in_site(self, site_id: str) -> Tuple[str, ...]:
        """Pool ids of one site."""
        for site in self._sites:
            if site.site_id == site_id:
                return site.pool_ids
        raise ClusterError(f"unknown site id: {site_id!r}")

    def local_pools(self, pool_id: str) -> Tuple[str, ...]:
        """Pool ids co-located with ``pool_id`` (including itself)."""
        return self.pools_in_site(self.site_of(pool_id))

    def same_site(self, pool_a: str, pool_b: str) -> bool:
        """Whether two pools share a site."""
        return self.site_of(pool_a) == self.site_of(pool_b)

    # -- latency -------------------------------------------------------------------

    def transfer_minutes(self, from_pool: str, to_pool: str) -> float:
        """Minutes to move a job between two pools (0 within a site)."""
        site_a = self.site_of(from_pool)
        site_b = self.site_of(to_pool)
        if site_a == site_b:
            return 0.0
        if self._pair_latency is not None:
            try:
                return self._pair_latency[(site_a, site_b)]
            except KeyError:
                raise ConfigurationError(
                    f"no transfer latency configured between sites "
                    f"{site_a!r} and {site_b!r}"
                ) from None
        return self._default_latency

    def __repr__(self) -> str:
        # The latencies are part of the repr because a cache key hashes
        # a topology (in a selector or an overhead) by it.
        latency = self._default_latency if self._pair_latency is None else sorted(self._pair_latency.items())
        return (
            f"SiteTopology(sites={len(self._sites)}, "
            f"pools={sum(len(s.pools) for s in self._sites)}, transfer_minutes={latency})"
        )
