"""Unit tests for repro.workload.distributions."""

import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.cache import stable_hash
from repro.workload.distributions import (
    BoundedPareto,
    Categorical,
    Constant,
    Exponential,
    LogNormal,
    Mixture,
    RandomStreams,
    Uniform,
    empirical_mean,
    lognormal_from_median,
    quantile,
)
from repro.workload.generator import default_runtime_model


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=42).stream("x").random()
        b = RandomStreams(seed=42).stream("x").random()
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random()
        b = RandomStreams(seed=2).stream("x").random()
        assert a != b

    def test_spawn_creates_independent_family(self):
        streams = RandomStreams(seed=1)
        child = streams.spawn("workload")
        assert child.seed != streams.seed
        assert child.stream("a").random() != streams.stream("a").random()

    def test_spawn_is_deterministic(self):
        a = RandomStreams(seed=5).spawn("w").seed
        b = RandomStreams(seed=5).spawn("w").seed
        assert a == b

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(seed=1.5)


class TestConstant:
    def test_sample_and_mean(self):
        c = Constant(3.5)
        assert c.sample(random.Random(0)) == 3.5
        assert c.mean() == 3.5


class TestUniform:
    def test_samples_in_range(self):
        u = Uniform(2.0, 5.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 2.0 <= u.sample(rng) <= 5.0

    def test_mean(self):
        assert Uniform(2.0, 6.0).mean() == 4.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Uniform(5.0, 2.0)


class TestExponential:
    def test_mean_matches_parameter(self):
        e = Exponential(mean_value=10.0)
        assert e.mean() == 10.0
        assert abs(empirical_mean(e, random.Random(1), 20000) - 10.0) < 0.5

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(mean_value=0.0)


class TestLogNormal:
    def test_analytic_mean(self):
        d = LogNormal(mu=1.0, sigma=0.5)
        assert math.isclose(d.mean(), math.exp(1.0 + 0.125))

    def test_from_median(self):
        d = lognormal_from_median(100.0, sigma=1.0)
        assert math.isclose(d.median(), 100.0)

    def test_empirical_mean_close(self):
        d = lognormal_from_median(50.0, sigma=0.5)
        measured = empirical_mean(d, random.Random(3), 50000)
        assert abs(measured - d.mean()) / d.mean() < 0.05

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            LogNormal(mu=0.0, sigma=-1.0)

    def test_bad_median_rejected(self):
        with pytest.raises(ConfigurationError):
            lognormal_from_median(0.0, sigma=1.0)


class TestBoundedPareto:
    def test_samples_within_bounds(self):
        d = BoundedPareto(alpha=1.3, low=10.0, high=1000.0)
        rng = random.Random(0)
        for _ in range(1000):
            value = d.sample(rng)
            assert 10.0 <= value <= 1000.0

    def test_analytic_mean_matches_empirical(self):
        d = BoundedPareto(alpha=1.5, low=10.0, high=500.0)
        measured = empirical_mean(d, random.Random(7), 100000)
        assert abs(measured - d.mean()) / d.mean() < 0.05

    def test_alpha_one_special_case(self):
        d = BoundedPareto(alpha=1.0, low=10.0, high=100.0)
        measured = empirical_mean(d, random.Random(9), 100000)
        assert abs(measured - d.mean()) / d.mean() < 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedPareto(alpha=0.0, low=1.0, high=2.0)
        with pytest.raises(ConfigurationError):
            BoundedPareto(alpha=1.0, low=5.0, high=2.0)
        with pytest.raises(ConfigurationError):
            BoundedPareto(alpha=1.0, low=0.0, high=2.0)


class TestMixture:
    def test_mean_is_weighted(self):
        m = Mixture(components=(Constant(10.0), Constant(20.0)), weights=(1.0, 3.0))
        assert math.isclose(m.mean(), 17.5)

    def test_samples_from_components(self):
        m = Mixture(components=(Constant(1.0), Constant(2.0)), weights=(0.5, 0.5))
        values = {m.sample(random.Random(i)) for i in range(50)}
        assert values == {1.0, 2.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Mixture(components=(Constant(1.0),), weights=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Mixture(components=(), weights=())
        with pytest.raises(ConfigurationError):
            Mixture(components=(Constant(1.0),), weights=(0.0,))


class TestCategorical:
    def test_returns_given_values(self):
        c = Categorical(values=("a", "b"), weights=(1.0, 1.0))
        assert c.sample(random.Random(0)) in {"a", "b"}

    def test_weighted_mean(self):
        c = Categorical(values=(2, 4), weights=(3.0, 1.0))
        assert math.isclose(c.mean(), 2.5)

    def test_zero_weight_never_sampled(self):
        c = Categorical(values=("always", "never"), weights=(1.0, 0.0))
        rng = random.Random(0)
        assert all(c.sample(rng) == "always" for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Categorical(values=(), weights=())
        with pytest.raises(ConfigurationError):
            Categorical(values=(1,), weights=(-1.0,))


@st.composite
def weight_vectors(draw):
    """1-8 non-negative weights, ints or floats, often with zeros."""
    weight = st.one_of(
        st.just(0.0),
        st.integers(0, 50),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    weights = draw(st.lists(weight, min_size=1, max_size=8))
    if draw(st.booleans()):
        weights[-1] = 0.0
    assume(any(w > 0 for w in weights))
    return tuple(weights)


class TestWeightedPick:
    """``Categorical``/``Mixture`` draw exactly as ``random.choices`` would."""

    @given(weights=weight_vectors(), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_draws_match_random_choices(self, weights, seed):
        values = tuple(f"v{i}" for i in range(len(weights)))
        categorical = Categorical(values, weights)
        mixture = Mixture(tuple(Constant(float(i)) for i in range(len(weights))), weights)
        reference, ours, mixed = (random.Random(seed) for _ in range(3))
        for _ in range(100):
            expected = reference.choices(values, weights)[0]
            assert categorical.sample(ours) == expected
            assert mixture.sample(mixed) == float(values.index(expected))
        assert ours.getstate() == reference.getstate()
        assert mixed.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "weights",
        [(math.inf, 1.0), (math.nan, 1.0), (1e308, 1e308), (0.0, 0.0), (0, 0)],
        ids=["inf", "nan", "overflowing-sum", "zero-float", "zero-int"],
    )
    def test_totals_random_choices_rejects_are_rejected(self, weights):
        with pytest.raises(ConfigurationError):
            Categorical(("a", "b"), weights)
        with pytest.raises(ConfigurationError):
            Mixture((Constant(1.0), Constant(2.0)), weights)

    def test_table_is_not_part_of_the_value(self):
        cores = Categorical((1, 2, 4), (0.85, 0.12, 0.03))
        assert repr(cores) == "Categorical(values=(1, 2, 4), weights=(0.85, 0.12, 0.03))"
        assert [f.name for f in dataclasses.fields(cores)] == ["values", "weights"]
        assert stable_hash(cores) == (
            "49a6570d7831c84b1edf42b75223daf978d089cf2397a88cfcd9939bfa5f43ba"
        )
        twin = Categorical((1, 2, 4), (0.85, 0.12, 0.03))
        assert cores == twin and hash(cores) == hash(twin)
        assert cores != Categorical((1, 2, 4), (0.85, 0.13, 0.02))
        runtime = default_runtime_model()
        assert repr(runtime) == (
            "Mixture(components=(LogNormal(mu=5.19295685089021, sigma=1.1), "
            "BoundedPareto(alpha=1.35, low=400.0, high=9000.0)), weights=(0.75, 0.25))"
        )
        assert stable_hash(runtime) == (
            "fb7031f1192c9bec84a500789301c571269e5ec1b19f2965872434b95615c667"
        )
        assert runtime == default_runtime_model()
        tail = runtime.components[1]
        assert [f.name for f in dataclasses.fields(tail)] == ["alpha", "low", "high"]
        assert repr(tail) == "BoundedPareto(alpha=1.35, low=400.0, high=9000.0)"
        assert stable_hash(tail) == (
            "1f512cdbc63d1e1132e9a73c9ea3263f44748904d7ddbcfc6748e3e6e75db52c"
        )
        assert tail == BoundedPareto(1.35, 400.0, 9000.0)
        assert hash(tail) == hash(BoundedPareto(1.35, 400.0, 9000.0))

    def test_copies_keep_or_rebuild_the_table(self):
        coin = Categorical(("heads", "tails"), (1.0, 0.0))
        clone = pickle.loads(pickle.dumps(coin))
        assert clone == coin and clone.sample(random.Random(1)) == "heads"
        flipped = dataclasses.replace(coin, weights=(0.0, 1.0))
        assert flipped.sample(random.Random(1)) == "tails"

    def test_copies_keep_or_rebuild_the_pareto_constants(self):
        tail = BoundedPareto(alpha=1.35, low=400.0, high=9000.0)
        expected = tail.sample(random.Random(1))
        for duplicate in (pickle.loads(pickle.dumps(tail)), copy.copy(tail), copy.deepcopy(tail)):
            assert duplicate == tail and duplicate.sample(random.Random(1)) == expected
        moved = dataclasses.replace(tail, low=800.0)
        assert moved.sample(random.Random(1)) == BoundedPareto(1.35, 800.0, 9000.0).sample(
            random.Random(1)
        )
        assert moved.sample(random.Random(1)) != expected


class TestQuantile:
    def test_median_of_two(self):
        assert quantile([1.0, 3.0], 0.5) == 2.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 3.0

    def test_single_value(self):
        assert quantile([5.0], 0.7) == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quantile([], 0.5)
        with pytest.raises(ConfigurationError):
            quantile([1.0], 1.5)
