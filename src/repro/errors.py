"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  The sub-classes are grouped by the subsystem that raises
them; they carry plain human-readable messages and, where useful,
structured attributes (e.g. the offending job id).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent.

    Raised during validation of simulation, workload or cluster
    configuration, before any simulation work starts.
    """


class TraceError(ReproError):
    """A workload trace is malformed (unsorted, negative times, ...)."""


class ClusterError(ReproError):
    """A cluster specification is malformed (empty pool, bad sizes, ...)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    This always indicates a bug in the engine (or a hand-built entity
    graph that bypassed validation), never a property of the workload.
    """


class SchedulingError(SimulationError):
    """A dispatch/preemption invariant was violated inside a pool."""


class JobStateError(SimulationError):
    """An illegal job state transition was attempted.

    Attributes:
        job_id: identifier of the job whose transition failed.
        current: name of the state the job was in.
        attempted: name of the transition that was attempted.
    """

    def __init__(self, job_id: int, current: str, attempted: str) -> None:
        self.job_id = job_id
        self.current = current
        self.attempted = attempted
        super().__init__(
            f"job {job_id}: illegal transition {attempted!r} from state {current!r}"
        )


class UnschedulableJobError(ReproError):
    """A job is not eligible on any machine of any candidate pool.

    NetBatch's virtual pool manager cycles a job through its candidate
    pools; a pool returns the job when *no* machine in the pool can ever
    satisfy the job's static requirements (OS family, total memory,
    total cores).  When every candidate pool returns the job there is no
    point retrying, and the simulator surfaces the problem as this
    error (or records the job as rejected when the engine is configured
    to be lenient).

    Attributes:
        job_id: identifier of the unschedulable job.
    """

    def __init__(self, job_id: int, detail: str = "") -> None:
        self.job_id = job_id
        message = f"job {job_id} is not eligible on any machine of any candidate pool"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class UnknownPoolError(ReproError):
    """A pool id was referenced that does not exist in the cluster."""

    def __init__(self, pool_id: str) -> None:
        self.pool_id = pool_id
        super().__init__(f"unknown pool id: {pool_id!r}")


class UnknownPolicyError(ReproError):
    """A rescheduling policy name was not found in the registry."""

    def __init__(self, name: str, known: tuple = ()) -> None:
        self.name = name
        hint = f" (known: {', '.join(sorted(known))})" if known else ""
        super().__init__(f"unknown rescheduling policy: {name!r}{hint}")


class ExperimentExecutionError(ReproError):
    """One cell of an experiment grid failed.

    Raised by the experiment execution backend when building or running
    a single (scenario, policy, scheduler) cell fails.  The error names
    the failing cell and keeps every cell that had already completed, so
    a long sweep does not lose its finished work.

    Attributes:
        scenario_name: scenario of the failing cell.
        policy_name: policy of the failing cell (the factory's name when
            the policy could not even be constructed).
        scheduler_name: initial scheduler of the failing cell.
        completed_cells: cells that finished before the failure, in grid
            order.
    """

    def __init__(
        self,
        scenario_name: str,
        policy_name: str,
        scheduler_name: str,
        cause: BaseException,
        completed_cells: tuple = (),
    ) -> None:
        self.scenario_name = scenario_name
        self.policy_name = policy_name
        self.scheduler_name = scheduler_name
        self.completed_cells = tuple(completed_cells)
        super().__init__(
            f"experiment cell (scenario={scenario_name!r}, policy={policy_name!r}, "
            f"scheduler={scheduler_name!r}) failed: {type(cause).__name__}: {cause}"
        )


class WorkerDied(ReproError):
    """A grid cell killed every worker process that tried to compute it.

    The fleet supervisor gives up on a cell once ``deaths`` holders
    died while computing it (its restart budget), so a persistently
    crashing cell fails on its own instead of taking the grid down.

    Attributes:
        cell_id: the cell's stable identity.
        deaths: how many worker processes died holding the cell.
    """

    def __init__(self, cell_id: str, deaths: int) -> None:
        self.cell_id = cell_id
        self.deaths = deaths
        super().__init__(
            f"cell {cell_id} killed {deaths} worker process(es); "
            "the fleet supervisor gave up on it"
        )


class CacheError(ReproError):
    """The on-disk experiment result cache is misconfigured."""
