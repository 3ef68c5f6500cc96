"""The paper's tables and figures, and the experiments beyond them, each checked against its claims.

One case per :data:`repro.validation.EXPERIMENTS` entry (Tables 1-5,
the in-text high-suspension run, Figures 2-4) and per
:data:`repro.validation.EXTENSIONS` entry (the ablations, the fault
sweep, inter-site rescheduling, the Section 2 observations).  Each case
times its experiment once, prints the same rows/series the paper
reports, and asserts the :data:`repro.validation.CLAIMS` and
:data:`repro.validation.EXTENSION_CLAIMS` it owns — a claim belongs to
the last experiment it needs, and the other experiments it needs are
computed untimed (or reused from an earlier case).  The predicates live
in ``repro.validation``; nothing is asserted here that ``repro
validate`` does not check.
"""

import pytest

from repro.validation import (
    CLAIMS,
    EXPERIMENTS,
    EXTENSION_CLAIMS,
    EXTENSIONS,
    ValidationReport,
    evaluate_claims,
)

from conftest import banner, run_once

REGISTRY = {**EXPERIMENTS, **EXTENSIONS}


@pytest.fixture(scope="module")
def results():
    """Experiment key -> result, shared by this module's cases."""
    return {}


@pytest.mark.parametrize("key", list(REGISTRY))
def test_paper(benchmark, results, key):
    experiment = REGISTRY[key]
    claims = [claim for claim in CLAIMS + EXTENSION_CLAIMS if claim.owner == key]
    for needed in {k for claim in claims for k in claim.needs} - {key} - set(results):
        results[needed] = REGISTRY[needed].run()
    results[key] = run_once(benchmark, experiment.run)
    print(banner(experiment.title))
    print(experiment.render(results[key]))
    report = ValidationReport(evaluate_claims(results, claims))
    print(report.render())
    assert report.passed, report.render()
