"""The paper's primary contribution: dynamic rescheduling policies.

This package contains the policy framework (decision hooks, pool
selectors, restart-overhead models) and the five strategies the paper
evaluates, plus the future-work extensions it sketches (job
duplication, checkpoint migration, multi-metric selection).
"""

from .context import JobView, PoolSnapshot, StaticSystemView, SystemView
from .decisions import STAY, Action, Decision, duplicate, fractional, migrate, restart
from .overheads import NO_OVERHEAD, RestartOverhead
from .policies import (
    DEFAULT_WAIT_THRESHOLD,
    PAPER_POLICY_NAMES,
    DuplicateSuspended,
    MigrateSuspended,
    NoRescheduling,
    RescheduleSuspended,
    RescheduleSuspendedAndWaiting,
    RescheduleWaitingOnly,
    no_res,
    res_sus_rand,
    res_sus_util,
    res_sus_wait_rand,
    res_sus_wait_util,
)
from .policy import ReschedulingPolicy
from .selectors import (
    LowestUtilizationSelector,
    PoolSelector,
    PredictedWaitSelector,
    RandomSelector,
    ShortestQueueSelector,
    WeightedSelector,
)

__all__ = [
    "JobView",
    "PoolSnapshot",
    "StaticSystemView",
    "SystemView",
    "STAY",
    "Action",
    "Decision",
    "duplicate",
    "fractional",
    "migrate",
    "restart",
    "NO_OVERHEAD",
    "RestartOverhead",
    "DEFAULT_WAIT_THRESHOLD",
    "PAPER_POLICY_NAMES",
    "DuplicateSuspended",
    "MigrateSuspended",
    "NoRescheduling",
    "RescheduleSuspended",
    "RescheduleSuspendedAndWaiting",
    "RescheduleWaitingOnly",
    "no_res",
    "res_sus_rand",
    "res_sus_util",
    "res_sus_wait_rand",
    "res_sus_wait_util",
    "ReschedulingPolicy",
    "LowestUtilizationSelector",
    "PoolSelector",
    "PredictedWaitSelector",
    "RandomSelector",
    "ShortestQueueSelector",
    "WeightedSelector",
]
