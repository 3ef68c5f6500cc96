"""Static cluster model: machines, physical pools, sites.

A :class:`ClusterSpec` is the immutable description of the hardware the
simulator emulates — "20 physical pools, each of which contains
hundreds to tens of thousands of machines with varying CPU speed and
memory" (paper, Section 3.1), scaled down by a configurable factor so
experiments run on a laptop.

The spec is pure data; runtime state (free cores, running jobs) lives in
:mod:`repro.simulator.machine` / :mod:`repro.simulator.pool`, which are
built *from* a spec at simulation start.  The one behavioural method
specs provide is the high-load transform the paper uses: "we reduce the
number of compute cores available to each pool by half while keeping
the submitted job trace unchanged" (:meth:`ClusterSpec.with_cores_halved`).
Static eligibility is a pure function of the spec, so every simulation
of one spec shares its :attr:`ClusterSpec.eligibility` index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import ClusterError
from ..schedulers.eligibility import machine_eligible
from .distributions import Categorical, RandomStreams, Uniform

__all__ = ["MachineSpec", "PoolSpec", "ClusterSpec", "ClusterTemplate", "EligibilityIndex"]


@dataclass(frozen=True)
class MachineSpec:
    """One physical machine.

    Attributes:
        machine_id: unique identifier within the cluster.
        pool_id: the physical pool this machine belongs to.
        cores: number of cores.
        memory_gb: total memory.
        speed_factor: relative CPU speed; a job with ``runtime_minutes``
            of demand completes in ``runtime_minutes / speed_factor``
            minutes of uninterrupted execution on this machine.
        os_family: operating-system family served by this machine.
    """

    machine_id: str
    pool_id: str
    cores: int
    memory_gb: float
    speed_factor: float = 1.0
    os_family: str = "linux"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ClusterError(f"machine {self.machine_id}: cores must be >= 1")
        if self.memory_gb <= 0:
            raise ClusterError(f"machine {self.machine_id}: memory_gb must be > 0")
        if self.speed_factor <= 0:
            raise ClusterError(f"machine {self.machine_id}: speed_factor must be > 0")


@dataclass(frozen=True)
class PoolSpec:
    """One physical pool: a named collection of machines."""

    pool_id: str
    machines: Tuple[MachineSpec, ...]

    def __post_init__(self) -> None:
        if not self.pool_id:
            raise ClusterError("pool_id may not be empty")
        if not self.machines:
            raise ClusterError(f"pool {self.pool_id}: must contain at least one machine")
        for machine in self.machines:
            if machine.pool_id != self.pool_id:
                raise ClusterError(
                    f"machine {machine.machine_id} claims pool {machine.pool_id!r} "
                    f"but is listed under pool {self.pool_id!r}"
                )

    @property
    def total_cores(self) -> int:
        """Sum of cores over all machines in the pool."""
        return sum(m.cores for m in self.machines)

    @property
    def total_memory_gb(self) -> float:
        """Sum of memory over all machines in the pool."""
        return sum(m.memory_gb for m in self.machines)

    def __len__(self) -> int:
        return len(self.machines)


class EligibilityIndex:
    """Static eligibility per job requirement signature, for every run on some pools.

    :func:`~repro.schedulers.eligibility.machine_eligible` depends only
    on the immutable machines and the job's ``(os_family, cores,
    memory_gb)``.  Entries are built on first lookup; at :attr:`cap`
    entries the index clears, so signatures that never repeat cost
    rescans, not memory, and a rebuilt entry equals the dropped one.
    """

    #: Entry bound; runtime pools bound their per-run machine tuples by it.
    cap = 4096

    def __init__(self, pools: Sequence[PoolSpec]) -> None:
        self._pools = pools
        # A signature maps to its positions per pool id; the signature
        # plus a whitelist maps to its candidate pool ids.
        self._entries: Dict[tuple, object] = {}

    def positions(self, job_spec) -> Dict[str, Tuple[int, ...]]:
        """Eligible machine positions (dispatch order) per pool id, in pool
        order, for the pools that have any."""
        sig = (job_spec.os_family, job_spec.cores, job_spec.memory_gb)
        found = self._entries.get(sig)
        if found is None:
            found = self._remember(sig, {
                pool.pool_id: hits
                for pool in self._pools
                if (hits := tuple(i for i, m in enumerate(pool.machines) if machine_eligible(m, job_spec)))
            })
        return found

    def candidates(self, job_spec) -> Tuple[str, ...]:
        """Pools, in pool order, that whitelist ``job_spec`` and hold an
        eligible machine.  Equal keys return the same tuple object until
        a cap clear, and an equal tuple after it."""
        whitelist = job_spec.candidate_pools
        key = (job_spec.os_family, job_spec.cores, job_spec.memory_gb, whitelist)
        found = self._entries.get(key)
        if found is None:
            found = self._remember(key, tuple(
                p for p in self.positions(job_spec) if whitelist is None or p in whitelist
            ))
        return found

    def __len__(self) -> int:
        return len(self._entries)

    def _remember(self, key: tuple, entry):
        if len(self._entries) >= self.cap:
            self._entries.clear()
        self._entries[key] = entry
        return entry


class ClusterSpec:
    """Immutable description of a whole site (a set of physical pools)."""

    def __init__(self, pools: Sequence[PoolSpec]) -> None:
        if not pools:
            raise ClusterError("a cluster must contain at least one pool")
        ids = [p.pool_id for p in pools]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate pool ids: {sorted(ids)}")
        machine_ids: set = set()
        for pool in pools:
            for machine in pool.machines:
                if machine.machine_id in machine_ids:
                    raise ClusterError(f"duplicate machine id: {machine.machine_id}")
                machine_ids.add(machine.machine_id)
        self._pools: Tuple[PoolSpec, ...] = tuple(pools)
        self._by_id: Dict[str, PoolSpec] = {p.pool_id: p for p in self._pools}

    def __getstate__(self) -> dict:
        """Pickle the spec without its :attr:`eligibility` index."""
        return {"_pools": self._pools, "_by_id": self._by_id}

    # -- accessors ---------------------------------------------------------

    @cached_property
    def eligibility(self) -> EligibilityIndex:
        """The static-eligibility index every run on this object shares.

        Built on first use; never pickled, compared or hashed.
        """
        return EligibilityIndex(self._pools)

    @property
    def pools(self) -> Tuple[PoolSpec, ...]:
        """The pools, in declaration order (the round-robin order)."""
        return self._pools

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        """Pool ids in declaration order."""
        return tuple(p.pool_id for p in self._pools)

    def pool(self, pool_id: str) -> PoolSpec:
        """Look up a pool by id."""
        try:
            return self._by_id[pool_id]
        except KeyError:
            raise ClusterError(f"unknown pool id: {pool_id!r}") from None

    def __len__(self) -> int:
        return len(self._pools)

    def __iter__(self) -> Iterator[PoolSpec]:
        return iter(self._pools)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClusterSpec) and self._pools == other._pools

    def __repr__(self) -> str:
        return (
            f"ClusterSpec(pools={len(self._pools)}, machines={self.total_machines}, "
            f"cores={self.total_cores})"
        )

    @property
    def total_machines(self) -> int:
        """Number of machines across all pools."""
        return sum(len(p) for p in self._pools)

    @property
    def total_cores(self) -> int:
        """Number of cores across all pools."""
        return sum(p.total_cores for p in self._pools)

    # -- transforms ----------------------------------------------------------

    def with_cores_halved(self) -> "ClusterSpec":
        """The paper's high-load transform: halve every machine's cores.

        Core counts are floored at 1 so small machines stay usable.
        Memory is left unchanged, as the paper only mentions compute
        cores.
        """
        return self.map_machines(lambda m: replace(m, cores=max(1, m.cores // 2)))

    def scaled_cores(self, factor: float) -> "ClusterSpec":
        """Scale every machine's core count by ``factor`` (floor 1)."""
        if factor <= 0:
            raise ClusterError(f"scale factor must be > 0, got {factor}")
        return self.map_machines(
            lambda m: replace(m, cores=max(1, int(round(m.cores * factor))))
        )

    def map_machines(self, transform) -> "ClusterSpec":
        """Apply ``transform`` to every machine, returning a new spec."""
        new_pools = []
        for pool in self._pools:
            new_pools.append(
                PoolSpec(pool.pool_id, tuple(transform(m) for m in pool.machines))
            )
        return ClusterSpec(new_pools)

    def subset(self, pool_ids: Sequence[str]) -> "ClusterSpec":
        """A new cluster containing only the named pools, in given order."""
        return ClusterSpec([self.pool(pid) for pid in pool_ids])


@dataclass(frozen=True)
class ClusterTemplate:
    """Parametric generator of NetBatch-like clusters.

    The template captures the site shape the paper describes: a fixed
    number of pools with skewed sizes (a few large pools that attract
    the high-priority bursts, many medium and small ones), heterogeneous
    machines (varying core count, memory, speed and OS).

    ``size_classes`` maps a class name to ``(pool_count, machine_count)``;
    machine counts are multiplied by ``scale`` (minimum one machine per
    pool), so the same template serves unit tests (tiny scale) and
    benchmark runs (larger scale).

    Attributes:
        size_classes: ordered tuple of ``(class_name, pool_count,
            machines_per_pool)`` triples.
        cores_per_machine: distribution over machine core counts.
        memory_per_machine: distribution over machine memory (GB).
        speed_factor: distribution over machine speed factors.
        os_families: distribution over OS families.
        scale: global multiplier for machines per pool.
    """

    size_classes: Tuple[Tuple[str, int, int], ...] = (
        ("large", 4, 170),
        ("medium", 8, 80),
        ("small", 8, 36),
    )
    cores_per_machine: Categorical = Categorical((4, 8, 16), (0.35, 0.45, 0.2))
    memory_per_machine: Categorical = Categorical(
        (16.0, 32.0, 64.0), (0.45, 0.35, 0.2)
    )
    speed_factor: Uniform = Uniform(0.8, 1.3)
    windows_pool_count: int = 2
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ClusterError(f"scale must be > 0, got {self.scale}")
        if not self.size_classes:
            raise ClusterError("size_classes may not be empty")
        for name, pool_count, machine_count in self.size_classes:
            if pool_count < 0 or machine_count < 1:
                raise ClusterError(
                    f"size class {name!r}: pool_count must be >= 0 and "
                    f"machines_per_pool >= 1"
                )
        if self.windows_pool_count < 0:
            raise ClusterError("windows_pool_count must be >= 0")
        if len(self.size_classes) > 1 and self.windows_pool_count > self.size_classes[1][1]:
            raise ClusterError(
                "windows_pool_count must fit within the second size class"
            )
        if self.windows_pool_count >= self.pool_count():
            raise ClusterError(
                "windows_pool_count must leave at least one linux pool"
            )

    def pool_count(self) -> int:
        """Total number of pools the template will generate."""
        return sum(count for _, count, _ in self.size_classes)

    def build(self, streams: RandomStreams) -> ClusterSpec:
        """Generate a concrete :class:`ClusterSpec`.

        Pool ids are ``pool-00``, ``pool-01``, ... in size-class order
        (large pools first), which is also the round-robin order used by
        the default initial scheduler.
        """
        rng = streams.stream("cluster")
        windows_pools = set(self.windows_pool_ids())
        pools: List[PoolSpec] = []
        pool_index = 0
        for class_name, pool_count, machines_per_pool in self.size_classes:
            scaled = max(1, int(round(machines_per_pool * self.scale)))
            for _ in range(pool_count):
                pool_id = f"pool-{pool_index:02d}"
                os_family = "windows" if pool_id in windows_pools else "linux"
                machines = tuple(
                    self._build_machine(pool_id, machine_index, os_family, rng)
                    for machine_index in range(scaled)
                )
                pools.append(PoolSpec(pool_id=pool_id, machines=machines))
                pool_index += 1
        return ClusterSpec(pools)

    def _build_machine(
        self, pool_id: str, machine_index: int, os_family: str, rng: random.Random
    ) -> MachineSpec:
        return MachineSpec(
            machine_id=f"{pool_id}/m{machine_index:04d}",
            pool_id=pool_id,
            cores=int(self.cores_per_machine.sample(rng)),
            memory_gb=float(self.memory_per_machine.sample(rng)),
            speed_factor=round(self.speed_factor.sample(rng), 3),
            os_family=os_family,
        )

    def windows_pool_ids(self) -> Tuple[str, ...]:
        """Ids of the dedicated Windows pools.

        NetBatch grew out of Windows NT compute farms (the paper cites
        Intel's "High-End Workstation Compute Farms Using Windows NT");
        machines of one OS family are grouped into dedicated pools
        rather than scattered, so an OS-constrained job always has a
        whole pool's worth of eligible machines.  The *last*
        ``windows_pool_count`` pools (smallest size class) are Windows.
        """
        total = self.pool_count()
        return tuple(
            f"pool-{i:02d}" for i in range(total - self.windows_pool_count, total)
        )

    def large_pool_ids(self) -> Tuple[str, ...]:
        """Ids of the pools in the first (largest) size class.

        The workload generator pins high-priority bursts to these pools
        by default, reproducing the paper's observation that
        latency-sensitive jobs are configured to run in specific pools.
        """
        first_class_count = self.size_classes[0][1]
        return tuple(f"pool-{i:02d}" for i in range(first_class_count))
