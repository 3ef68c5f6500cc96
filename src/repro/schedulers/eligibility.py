"""Static job-to-machine eligibility.

NetBatch's physical pool manager dispatches "based on the job
requirements (e.g., OS and memory)" (Section 2.1).  *Eligibility* is the
static half of that check: could this machine ever run this job,
regardless of current load?  A machine is eligible when its OS family
matches and its **total** cores and memory cover the job's requirements.
Whether the machine can take the job *right now* (free cores/memory) is
a separate, dynamic question answered by the runtime
:class:`~repro.simulator.machine.Machine`.

Eligibility drives the virtual pool manager's give-back rule: a pool
with no eligible machine at all returns the job so the VPM tries the
next pool.  Which pools hold an eligible machine is answered per
cluster by :attr:`~repro.workload.cluster.ClusterSpec.eligibility`.
"""

from __future__ import annotations

__all__ = ["machine_eligible"]


def machine_eligible(machine_spec, job_spec) -> bool:
    """Whether ``machine_spec`` could ever run ``job_spec``.

    Args:
        machine_spec: a :class:`~repro.workload.cluster.MachineSpec`.
        job_spec: a :class:`~repro.workload.trace.TraceJob`.
    """
    return (
        machine_spec.os_family == job_spec.os_family
        and machine_spec.cores >= job_spec.cores
        and machine_spec.memory_gb >= job_spec.memory_gb
    )
