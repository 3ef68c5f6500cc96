"""Initial (first-placement) schedulers and eligibility rules."""

from .eligibility import machine_eligible
from .initial import (
    INITIAL_SCHEDULER_NAMES,
    InitialScheduler,
    LeastWaitingScheduler,
    RandomInitialScheduler,
    RoundRobinScheduler,
    UtilizationBasedScheduler,
    initial_scheduler_from_name,
)

__all__ = [
    "machine_eligible",
    "INITIAL_SCHEDULER_NAMES",
    "InitialScheduler",
    "LeastWaitingScheduler",
    "RandomInitialScheduler",
    "RoundRobinScheduler",
    "UtilizationBasedScheduler",
    "initial_scheduler_from_name",
]
