"""Initial schedulers: how the virtual pool manager picks a pool.

"To disambiguate from rescheduling schemes, we call the scheduler at
each virtual pool manager *initial scheduler*" (Section 3.2.1).  The
paper evaluates two and we add two more for ablations:

* :class:`RoundRobinScheduler` — NetBatch's default: "distributes jobs
  across candidate pools in a sequential order".
* :class:`UtilizationBasedScheduler` — "each job entering a virtual
  pool manager is scheduled to the physical pool that currently has the
  lowest utilization" (Section 3.2.2).  The paper notes this is hard to
  implement exactly in a geo-distributed deployment; the simulator
  grants it perfect information.
* :class:`RandomInitialScheduler` — load-oblivious random placement
  (ablation baseline).
* :class:`LeastWaitingScheduler` — shortest-wait-queue placement
  (ablation; a cheap proxy for utilization).

An initial scheduler returns the *order* in which the VPM should try
the job's candidate pools; the VPM walks the order and places the job
at the first pool that does not give it back as statically ineligible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.context import SystemView

__all__ = [
    "InitialScheduler",
    "RoundRobinScheduler",
    "UtilizationBasedScheduler",
    "RandomInitialScheduler",
    "LeastWaitingScheduler",
    "initial_scheduler_from_name",
    "INITIAL_SCHEDULER_NAMES",
]


class InitialScheduler:
    """Interface: rank a job's candidate pools for first placement."""

    #: Human-readable name used in reports; subclasses override.
    name: str = "InitialScheduler"

    def order(self, candidates: Sequence[str], view: SystemView) -> List[str]:
        """Return ``candidates`` in the order the VPM should try them.

        Args:
            candidates: pools the job may run in, in the site's
                canonical order (already filtered by the job's
                whitelist).
            view: live system statistics.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-run state.

        The engine calls this when it takes ownership of a scheduler
        instance, so reusing one object across simulations (a grid
        sharing a scheduler between cells) cannot leak placement state
        from one run into the next — every run must be a pure function
        of its inputs for the cache/fabric bit-identical contract to
        hold.  Stateless schedulers inherit this no-op.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinScheduler(InitialScheduler):
    """NetBatch's default: cycle through pools in canonical order.

    The cursor is keyed by the candidate tuple so that restricted jobs
    (whose candidate set is a subset of all pools) get their own fair
    cycle rather than skewing the global one.
    """

    name = "RoundRobin"

    def __init__(self) -> None:
        self._cursors: Dict[Tuple[str, ...], int] = {}

    def reset(self) -> None:
        self._cursors.clear()

    def order(self, candidates: Sequence[str], view: SystemView) -> List[str]:
        key = tuple(candidates)
        if not key:
            return []
        cursor = self._cursors.get(key, 0) % len(key)
        self._cursors[key] = cursor + 1
        return list(key[cursor:] + key[:cursor])


class UtilizationBasedScheduler(InitialScheduler):
    """Send each job to the currently least-utilized candidate pool."""

    name = "UtilizationBased"

    def order(self, candidates: Sequence[str], view: SystemView) -> List[str]:
        return sorted(candidates, key=lambda pid: (view.pool(pid).utilization, pid))


class RandomInitialScheduler(InitialScheduler):
    """Try candidate pools in uniformly random order (ablation)."""

    name = "RandomInitial"

    def order(self, candidates: Sequence[str], view: SystemView) -> List[str]:
        shuffled = list(candidates)
        view.rng.shuffle(shuffled)
        return shuffled


class LeastWaitingScheduler(InitialScheduler):
    """Try candidate pools in increasing wait-queue-length order (ablation)."""

    name = "LeastWaiting"

    def order(self, candidates: Sequence[str], view: SystemView) -> List[str]:
        return sorted(candidates, key=lambda pid: (view.pool(pid).waiting_jobs, pid))


_SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "utilization": UtilizationBasedScheduler,
    "random": RandomInitialScheduler,
    "least-waiting": LeastWaitingScheduler,
}

#: Names accepted by :func:`initial_scheduler_from_name`.
INITIAL_SCHEDULER_NAMES: Tuple[str, ...] = tuple(_SCHEDULERS)


def initial_scheduler_from_name(name: str) -> InitialScheduler:
    """Build an initial scheduler from its CLI name."""
    try:
        scheduler_class = _SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(_SCHEDULERS))
        raise ValueError(f"unknown initial scheduler {name!r} (known: {known})") from None
    return scheduler_class()
