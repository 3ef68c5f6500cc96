"""The paper's rescheduling strategies, plus extensions.

The five strategies the paper evaluates map onto two composable policy
classes parameterised by a :class:`~repro.core.selectors.PoolSelector`:

========================  ==============================================
Paper name                Construction
========================  ==============================================
``NoRes``                 :class:`NoRescheduling`
``ResSusUtil``            :class:`RescheduleSuspended` + lowest-utilization
``ResSusRand``            :class:`RescheduleSuspended` + random
``ResSusWaitUtil``        :class:`RescheduleSuspendedAndWaiting` + lowest-utilization
``ResSusWaitRand``        :class:`RescheduleSuspendedAndWaiting` + random
========================  ==============================================

The experiment runner and the CLI address these (and every other
registered family) through spec strings via
:mod:`repro.policies`.  Two extensions go beyond
the paper: :class:`DuplicateSuspended` (the future-work
job-duplication technique) and :class:`RescheduleWaitingOnly` (an
ablation isolating the waiting-job mechanism).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ConfigurationError
from .context import SystemView
from .decisions import STAY, Decision, duplicate, migrate, restart
from .policy import ReschedulingPolicy
from .selectors import LowestUtilizationSelector, PoolSelector, RandomSelector

__all__ = [
    "NoRescheduling",
    "RescheduleSuspended",
    "RescheduleSuspendedAndWaiting",
    "RescheduleWaitingOnly",
    "DuplicateSuspended",
    "MigrateSuspended",
    "no_res",
    "res_sus_util",
    "res_sus_rand",
    "res_sus_wait_util",
    "res_sus_wait_rand",
    "PAPER_POLICY_NAMES",
    "DEFAULT_WAIT_THRESHOLD",
]

#: The paper's waiting threshold: 30 minutes, "about twice the expected
#: average waiting time in the original system" (Section 3.3).
DEFAULT_WAIT_THRESHOLD = 30.0


class NoRescheduling(ReschedulingPolicy):
    """The baseline: suspended jobs wait on their host, queues are FIFO."""

    name = "NoRes"


class RescheduleSuspended(ReschedulingPolicy):
    """Restart suspended jobs at an alternate pool (Section 3.2).

    "Whenever a currently running job on a machine is suspended by a
    newly arrived job with higher priority, it could be restarted (from
    the beginning) at a different pool."  The alternate pool comes from
    the selector; if the selector returns ``None`` (e.g. the guarded
    utilization selector found nothing less loaded) the job stays
    suspended in place.
    """

    def __init__(self, selector: PoolSelector, name: Optional[str] = None) -> None:
        self._selector = selector
        if name:
            self.name = name
        else:
            self.name = f"ResSus[{type(selector).__name__}]"

    @property
    def selector(self) -> PoolSelector:
        """The alternate-pool selector in use."""
        return self._selector

    def on_suspend(self, job, view: SystemView) -> Decision:
        target = self._selector.select(view.candidate_pools(job), job.pool_id, view)
        if target is None:
            return STAY
        return restart(target)


class RescheduleSuspendedAndWaiting(RescheduleSuspended):
    """Additionally restart jobs stalled in wait queues (Section 3.3).

    "We apply the rescheduling approaches to reschedule not only
    suspended jobs but also jobs waiting in a queue for longer than a
    specific threshold."  A job that moves and stalls again gets another
    chance each time the threshold elapses — the mechanism behind the
    paper's observation that even random selection works well here.
    """

    def __init__(
        self,
        selector: PoolSelector,
        wait_threshold: float = DEFAULT_WAIT_THRESHOLD,
        name: Optional[str] = None,
    ) -> None:
        if wait_threshold <= 0:
            raise ConfigurationError(
                f"wait_threshold must be > 0, got {wait_threshold}"
            )
        super().__init__(selector, name or f"ResSusWait[{type(selector).__name__}]")
        self._wait_threshold = wait_threshold

    @property
    def wait_threshold(self) -> Optional[float]:
        return self._wait_threshold

    def on_wait_timeout(self, job, view: SystemView) -> Decision:
        target = self._selector.select(view.candidate_pools(job), job.pool_id, view)
        if target is None:
            return STAY
        return restart(target)


class RescheduleWaitingOnly(ReschedulingPolicy):
    """Ablation: move stalled waiting jobs but leave suspended jobs alone.

    Not evaluated in the paper; isolates how much of the combined
    scheme's benefit comes from the waiting-job mechanism.
    """

    def __init__(
        self, selector: PoolSelector, wait_threshold: float = DEFAULT_WAIT_THRESHOLD
    ) -> None:
        if wait_threshold <= 0:
            raise ConfigurationError(f"wait_threshold must be > 0, got {wait_threshold}")
        self._selector = selector
        self._wait_threshold = wait_threshold
        self.name = f"ResWaitOnly[{type(selector).__name__}]"

    @property
    def wait_threshold(self) -> Optional[float]:
        return self._wait_threshold

    def on_wait_timeout(self, job, view: SystemView) -> Decision:
        target = self._selector.select(view.candidate_pools(job), job.pool_id, view)
        if target is None:
            return STAY
        return restart(target)


class MigrateSuspended(ReschedulingPolicy):
    """Comparator: checkpoint-migrate suspended jobs instead of restarting.

    Section 2.3 asks why migration (as in Condor) or VM migration (as
    in VMware) is not used by NetBatch and answers with the 10-20%
    virtualisation overhead.  This policy makes that comparison
    measurable: a suspended job moves to the selector's pool *keeping
    its progress*, paying the migration delay/dilation configured on
    the simulation (:class:`~repro.simulator.config.SimulationConfig`).
    """

    def __init__(self, selector: PoolSelector, name: Optional[str] = None) -> None:
        self._selector = selector
        self.name = name or f"MigSus[{type(selector).__name__}]"

    @property
    def selector(self) -> PoolSelector:
        """The alternate-pool selector in use."""
        return self._selector

    def on_suspend(self, job, view: SystemView) -> Decision:
        target = self._selector.select(view.candidate_pools(job), job.pool_id, view)
        if target is None:
            return STAY
        return migrate(target)


class DuplicateSuspended(ReschedulingPolicy):
    """Future-work extension: duplicate suspended jobs instead of moving.

    The paper's conclusion mentions "more sophisticated rescheduling
    strategies that combine job duplication techniques and inter-site
    rescheduling".  Here a suspended job keeps its (possibly resuming)
    original attempt *and* launches a second attempt at the selected
    pool; whichever finishes first wins and the loser's progress counts
    as rescheduling waste.  Compared with restart-based rescheduling,
    duplication can never extend a job's completion time — at the price
    of extra resource consumption.
    """

    def __init__(self, selector: PoolSelector, name: Optional[str] = None) -> None:
        self._selector = selector
        self.name = name or f"DupSus[{type(selector).__name__}]"

    def on_suspend(self, job, view: SystemView) -> Decision:
        target = self._selector.select(view.candidate_pools(job), job.pool_id, view)
        if target is None:
            return STAY
        return duplicate(target)


# -- paper-name factories ----------------------------------------------------


def no_res() -> NoRescheduling:
    """The paper's *NoRes* baseline."""
    return NoRescheduling()


def res_sus_util() -> RescheduleSuspended:
    """The paper's *ResSusUtil*: restart suspended jobs at the least-utilized pool."""
    return RescheduleSuspended(LowestUtilizationSelector(), name="ResSusUtil")


def res_sus_rand() -> RescheduleSuspended:
    """The paper's *ResSusRand*: restart suspended jobs at a random pool."""
    return RescheduleSuspended(RandomSelector(), name="ResSusRand")


def res_sus_wait_util(
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD,
) -> RescheduleSuspendedAndWaiting:
    """The paper's *ResSusWaitUtil*: also move jobs waiting past the threshold."""
    return RescheduleSuspendedAndWaiting(
        LowestUtilizationSelector(), wait_threshold, name="ResSusWaitUtil"
    )


def res_sus_wait_rand(
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD,
) -> RescheduleSuspendedAndWaiting:
    """The paper's *ResSusWaitRand*: random selection for both hooks."""
    return RescheduleSuspendedAndWaiting(
        RandomSelector(), wait_threshold, name="ResSusWaitRand"
    )


#: The strategy names used throughout the paper's tables.
PAPER_POLICY_NAMES: Tuple[str, ...] = (
    "NoRes",
    "ResSusUtil",
    "ResSusRand",
    "ResSusWaitUtil",
    "ResSusWaitRand",
)
