"""Golden digests: exact engine output across policies and fault models.

Each cell runs one registry policy over a fixed slice of the
``high_suspension`` scenario, with faults off and with machine churn
plus transient job failures, and hashes everything the run produces:
every job record, every state sample and the fault statistics.  The
digests were recorded from the engine as it stood before its drain
loops were merged, so any change to scheduling decisions, accounting
or sampling order flips one.

Both input shapes must reproduce the same digest: a materialised
:class:`~repro.workload.trace.Trace` and a plain iterator over its jobs.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.faults import FaultConfig, MachineChurn
from repro.policies import policy_from_spec
from repro.simulator.config import SimulationConfig
from repro.workload.distributions import Exponential
from repro.workload.trace import Trace

POLICIES = (
    "NoRes",
    "ResSusUtil",
    "ResSusWaitUtil",
    "dfrs",
    "dup_sus",
    "mig_sus",
    "migration_cost",
)

#: Jobs kept from the scenario; enough for suspensions, restarts,
#: migrations, duplicates and permanent failures in every cell.
JOBS = 800

GOLDEN = {
    ("NoRes", False): "928fe31574f7fe1c29eda816b2ca13b322e85b0bf945a5288b705b9c820eb3b5",
    ("NoRes", True): "f5725e5d3e0a45a1d4c127f2a6e732595ff7845d0a0933bd6be526eae7b3c382",
    ("ResSusUtil", False): "e69a95227b0aaf2c3284a48f5dfbe136f949950eb8eaa2d3cc3be429c35106ed",
    ("ResSusUtil", True): "bb3d7e5850508f5cf3ca21b869aa454207a16c5d8eea47ea8f9cb9420803bb4b",
    ("ResSusWaitUtil", False): "a444dcaf5b564dd0e2e1f4469c0401959c61a6d4c26d9209789d0e9c8c815541",
    ("ResSusWaitUtil", True): "c66e7623461cb67fe55072f367de02a35d987c5aa41cd377194dd472fd10fd4f",
    ("dfrs", False): "f937677d104737adca588f5d4b01ac0aca0a5862b5738cc71efc09788706e116",
    ("dfrs", True): "441500df9b142081fca70f45451496e6bf22a85c83ee14cd8c8fd9728738b84f",
    ("dup_sus", False): "0cdb194b28d114c80a5a50f0e3facd676e2fb4fc1c548ae6e0cb8ec1e985cc97",
    ("dup_sus", True): "c071e96c8dab29353e16e6acf76207a015c928cbbb0267c3ab69d2e02b4c9932",
    ("mig_sus", False): "17caa0fc2b595213789fa9cf2dbb8a55ba569065d618c6d91a7c0fc4b90992d9",
    ("mig_sus", True): "38c892c080fa0b3156a805b9d9f05769b3a9f60ce206356e1d4a05b2989805e3",
    ("migration_cost", False): "a116025d01b3ec2e0e4fa3062ad65b63c7debab570e730dcd144744a346ffc00",
    ("migration_cost", True): "ba350988a3a572425ff989bc59c744d3390f1de51abac72eb108e08b36a8eebf",
}


@pytest.fixture(scope="module")
def scenario():
    built = repro.high_suspension(scale=0.05, seed=11)
    return Trace(built.trace.jobs[:JOBS]), built.cluster, built.wait_threshold


def _config(faults: bool) -> SimulationConfig:
    if not faults:
        return SimulationConfig(strict=False, seed=3)
    return SimulationConfig(
        strict=False,
        seed=3,
        faults=FaultConfig(
            machine_churn=MachineChurn(
                mtbf=Exponential(3000.0), mttr=Exponential(60.0)
            ),
            job_failure_probability=0.1,
        ),
    )


def run_digest(trace_input, cluster, wait_threshold, spec: str, faults: bool) -> str:
    policy = policy_from_spec(spec, defaults={"wait_threshold": wait_threshold})
    result = repro.run_simulation(
        trace_input, cluster, policy=policy, config=_config(faults)
    )
    return result_digest(result)


def result_digest(result) -> str:
    """SHA-256 over every record, every sample and the fault statistics."""
    hasher = hashlib.sha256()
    for record in result.records:
        hasher.update(repr(record).encode("utf-8"))
    hasher.update(b"|")
    for sample in result.samples:
        hasher.update(repr(sample).encode("utf-8"))
    hasher.update(b"|")
    hasher.update(repr(result.fault_stats).encode("utf-8"))
    return hasher.hexdigest()


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("spec", POLICIES)
@pytest.mark.parametrize("shape", ["trace", "iterator"])
def test_golden_digest(scenario, spec, faults, shape):
    trace, cluster, wait_threshold = scenario
    trace_input = trace if shape == "trace" else iter(trace)
    digest = run_digest(trace_input, cluster, wait_threshold, spec, faults)
    assert digest == GOLDEN[(spec, faults)]
