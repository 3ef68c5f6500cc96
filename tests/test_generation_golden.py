"""Golden fingerprints of generated scenarios.

Every experiment replays a trace the synthetic generator builds, so a
change to how a sampler draws (or in what order the generator asks) is
a change to every result.  These digests hash every field of every job
(``_trace_fingerprint``, the cache key's trace component) and the
generated cluster, for each preset at small scale and two seeds; any
speed work on the generator must leave them bit-identical.

A cache key of a recipe-built scenario names its builder, arguments and
``GENERATOR_VERSION`` instead of hashing the trace, so the version is
pinned here beside the digests: re-pinning a digest without bumping it
fails, and would otherwise serve stale cached results.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import _trace_fingerprint, stable_hash
from repro.workload import scenarios

BUILDERS = {
    "busy_week": lambda seed: scenarios.busy_week(scale=0.05, seed=seed),
    "high_suspension": lambda seed: scenarios.high_suspension(scale=0.05, seed=seed),
    "smoke": lambda seed: scenarios.smoke(seed=seed),
    "year": lambda seed: scenarios.year(scale=0.02, seed=seed, horizon=20_000.0),
    "year-diurnal": lambda seed: scenarios.year(
        scale=0.02, seed=seed, horizon=20_000.0, diurnal=True
    ),
}

#: The ``GENERATOR_VERSION`` that generates :data:`GOLDEN`; bump both
#: together.
GOLDEN_GENERATOR_VERSION = 1

#: (scenario, seed) -> (job count, trace fingerprint, cluster hash).
GOLDEN = {
    ("busy_week", 1): (
        4730,
        "012f8368a5d2fd3bbd5f1e81657c36a2527bf96400332f709cc183b761ca971f",
        "8f7f077db709853e11129ec73c1829d63674bf690bd6d9abe6de1d72b1426520",
    ),
    ("busy_week", 2): (
        4746,
        "1ff3ec51e4bfa096cdce01be8b83ca932aec29ddc9e19126a217fcf4da653a93",
        "4961e1ea1c1e330ae0957bc7ab1313b7137d2c67da27e1de35d3304e03641786",
    ),
    ("high_suspension", 1): (
        7743,
        "f203d043f304b4d619ed367877f0d6969d29d27db4c9025efc22e5d2c2bd7b64",
        "8f7f077db709853e11129ec73c1829d63674bf690bd6d9abe6de1d72b1426520",
    ),
    ("high_suspension", 2): (
        9610,
        "1b688ed905b2a75576a59f457ccc900803a9fd04b8b0f564cc655ee0221a6f46",
        "4961e1ea1c1e330ae0957bc7ab1313b7137d2c67da27e1de35d3304e03641786",
    ),
    ("smoke", 1): (
        636,
        "1e3d0cc5a3ea6139bd96d40338f80b7b1424f47345d2ff94b88dde2c049459d3",
        "5e97827537844ccdb403ad8ad1dfb773eeea9a3fe12fb90d163dd948ab01c201",
    ),
    ("smoke", 2): (
        664,
        "3e811b501c3209ecebf7a5bd2cd680fafa1e8af112e77505f38026fd0dec773b",
        "de52bd01f6e0e029f9fc3774414f1e103bb44dc4711d120c1a92c202702c5523",
    ),
    ("year", 1): (
        3919,
        "fef9bf940bf2e5d171dfc4cbf8a898ace20909b9f186f298635377b7d15cd5a0",
        "df48c283b8ed81f989acc229cba1f34f5e193de561912595331096f7d8dd5466",
    ),
    ("year", 2): (
        3410,
        "32144be21079d15d9228f3b41b32c670e61b9ca424eadc579b53ddd57de5b0dd",
        "c10d2b28a3c926cefaf4cfa73f01d835d3e233c7b7c4d2eef5986522c474d4b8",
    ),
    ("year-diurnal", 1): (
        3423,
        "e173ef092cda1c79311803625f831d05ff1f8306e823228060b6a8cf55c9c72b",
        "df48c283b8ed81f989acc229cba1f34f5e193de561912595331096f7d8dd5466",
    ),
    ("year-diurnal", 2): (
        2967,
        "754f2b335f2a9921a8b201f90563ce480ca077eeefc59139c2831858301bfd1c",
        "c10d2b28a3c926cefaf4cfa73f01d835d3e233c7b7c4d2eef5986522c474d4b8",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_generated_scenario_is_bit_identical(name, seed):
    scenario = BUILDERS[name](seed)
    got = (
        len(scenario.trace.jobs),
        _trace_fingerprint(scenario.trace),
        stable_hash(tuple(scenario.cluster)),
    )
    assert got == GOLDEN[(name, seed)], f"{name} seed={seed} generated a different scenario"


def test_golden_is_pinned_to_the_generator_version():
    assert scenarios.GENERATOR_VERSION == GOLDEN_GENERATOR_VERSION, (
        "GENERATOR_VERSION changed: re-pin GOLDEN and GOLDEN_GENERATOR_VERSION together"
    )
