"""The paper's tables and figures, each checked against its claims.

One case per :data:`repro.validation.EXPERIMENTS` entry (Tables 1-5,
the in-text high-suspension run, Figures 2-4).  Each case times its
experiment once, prints the same rows/series the paper reports, and
asserts the :data:`repro.validation.CLAIMS` it owns — a claim belongs
to the last experiment it needs, and the other experiments it needs are
computed untimed (or reused from an earlier case).  The paper's values
and the predicates live in ``repro.validation``; nothing is asserted
here that ``repro validate`` does not check.
"""

import pytest

from repro.validation import CLAIMS, EXPERIMENTS, ValidationReport, evaluate_claims

from conftest import banner, run_once


@pytest.fixture(scope="module")
def results():
    """Experiment key -> result, shared by this module's cases."""
    return {}


@pytest.mark.parametrize("key", list(EXPERIMENTS))
def test_paper(benchmark, results, key):
    experiment = EXPERIMENTS[key]
    claims = [claim for claim in CLAIMS if claim.owner == key]
    for needed in {k for claim in claims for k in claim.needs} - {key} - set(results):
        results[needed] = EXPERIMENTS[needed].run()
    results[key] = run_once(benchmark, experiment.run)
    print(banner(experiment.title))
    print(experiment.render(results[key]))
    report = ValidationReport(evaluate_claims(results, claims))
    print(report.render())
    assert report.passed, report.render()
