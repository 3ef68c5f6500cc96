"""Tests for multi-seed replication (repro.experiments.replication)."""

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.replication import (
    MetricEstimate,
    _estimate,
    _t_critical,
    replicate,
)
from repro.workload.scenarios import smoke


def smoke_factory(scale, seed):
    return smoke(seed=seed)


class TestEstimate:
    def test_single_sample_zero_width(self):
        estimate = _estimate([5.0])
        assert estimate.mean == 5.0
        assert estimate.half_width == 0.0

    def test_identical_samples_zero_width(self):
        estimate = _estimate([3.0, 3.0, 3.0])
        assert estimate.half_width == 0.0

    def test_known_interval(self):
        # samples 1,2,3: mean 2, sd 1, se 1/sqrt(3), t(2)=4.303
        estimate = _estimate([1.0, 2.0, 3.0])
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.half_width == pytest.approx(4.303 / (3 ** 0.5), rel=1e-3)
        assert estimate.low < estimate.mean < estimate.high

    def test_t_critical_large_df_normalish(self):
        assert _t_critical(100) == pytest.approx(1.96)
        assert _t_critical(0) == float("inf")

    def test_str_format(self):
        assert str(MetricEstimate(10.0, 2.5, (1.0,))) == "10.0 ± 2.5"


class TestReplicate:
    @pytest.fixture(scope="class")
    def comparison(self):
        return replicate(
            [repro.no_res, repro.res_sus_wait_util],
            scenario_factory=smoke_factory,
            seeds=(7, 8, 9),
            scale=1.0,
        )

    def test_strategies_and_seeds(self, comparison):
        assert comparison.strategy_names() == ["NoRes", "ResSusWaitUtil"]
        assert comparison.seeds == (7, 8, 9)

    def test_every_metric_has_three_samples(self, comparison):
        wct = comparison.estimates["NoRes"]["avg_wct"]
        assert len(wct.samples) == 3
        assert wct.half_width >= 0.0

    def test_render(self, comparison):
        text = comparison.render()
        assert "NoRes" in text
        assert "±" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replicate([], seeds=(1,))
        with pytest.raises(ConfigurationError):
            replicate([repro.no_res], seeds=())
