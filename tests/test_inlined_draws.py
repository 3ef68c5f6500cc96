"""Draw-for-draw checks of the samplers and arrival processes that inline
:mod:`random`'s variate methods.

``LogNormal.sample`` repeats CPython's ``normalvariate`` loop, and the
arrival processes compute ``expovariate`` themselves.  Each must return
the values the library method would and leave the stream in the same
state, or every generated trace changes.  If a Python release changes
one of those methods, these tests fail by name before the generation
goldens fail without saying why.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workload.arrivals import BurstProcess, DiurnalPoissonProcess, PoissonProcess
from repro.workload.distributions import BoundedPareto, LogNormal

seeds = st.integers(0, 2**32)
finite = dict(allow_nan=False, allow_infinity=False)


def old_bounded_pareto(alpha, low, high, rng):
    """The per-draw formula ``BoundedPareto.sample`` used before it stored its constants."""
    u = rng.random()
    la = low**alpha
    ha = high**alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def reference_poisson(rate, horizon, rng):
    times = []
    if rate == 0:
        return times
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return times
        times.append(t)


def reference_diurnal(process, horizon, rng):
    times = []
    max_rate = process.base_rate * (1.0 + process.daily_amplitude)
    t = 0.0
    while True:
        t += rng.expovariate(max_rate)
        if t >= horizon:
            return times
        if rng.random() <= process.rate_at(t) / max_rate:
            times.append(t)


def reference_windows(process, horizon, rng):
    result = []
    t = 0.0
    first = True
    while True:
        if first and process.first_burst_start is not None:
            t = process.first_burst_start
        else:
            t += rng.expovariate(1.0 / process.mean_gap)
        if t >= horizon:
            return result
        if first and process.first_burst_start is not None:
            duration = process.first_burst_duration or process.mean_duration
        else:
            duration = rng.expovariate(1.0 / process.mean_duration)
        first = False
        end = min(t + duration, horizon)
        arrivals = []
        if process.burst_rate > 0:
            a = t
            while True:
                a += rng.expovariate(process.burst_rate)
                if a >= end:
                    break
                arrivals.append(a)
        result.append((t, end, tuple(arrivals)))
        t = end


def twin_streams(seed):
    return random.Random(seed), random.Random(seed)


class TestSamplers:
    @given(
        mu=st.floats(-5.0, 10.0, **finite),
        sigma=st.floats(0.0, 3.0, **finite),
        seed=seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_lognormal_matches_lognormvariate(self, mu, sigma, seed):
        ours, reference = twin_streams(seed)
        sampler = LogNormal(mu, sigma)
        for _ in range(50):
            assert sampler.sample(ours) == reference.lognormvariate(mu, sigma)
        assert ours.getstate() == reference.getstate()

    @given(
        alpha=st.floats(0.1, 4.0, **finite),
        low=st.floats(0.01, 1e4, **finite),
        spread=st.floats(1.001, 1e3, **finite),
        seed=seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_pareto_matches_per_draw_formula(self, alpha, low, spread, seed):
        high = low * spread
        ours, reference = twin_streams(seed)
        sampler = BoundedPareto(alpha, low, high)
        for _ in range(50):
            assert sampler.sample(ours) == old_bounded_pareto(alpha, low, high, reference)
        assert ours.getstate() == reference.getstate()


class TestArrivalProcesses:
    @given(rate=st.floats(0.0, 20.0, **finite), seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_poisson_matches_expovariate_loop(self, rate, seed):
        ours, reference = twin_streams(seed)
        times = list(PoissonProcess(rate).iter_arrivals(200.0, ours))
        assert times == reference_poisson(rate, 200.0, reference)
        assert ours.getstate() == reference.getstate()

    @given(rate=st.floats(0.0, 20.0, **finite), seed=seeds)
    @example(rate=0.9, seed=5)  # 1/(1/0.9) != 0.9, the rate the eager list once drew with
    @settings(max_examples=100, deadline=None)
    def test_poisson_eager_equals_lazy(self, rate, seed):
        lazy, eager = twin_streams(seed)
        process = PoissonProcess(rate)
        assert process.arrivals(200.0, eager) == list(process.iter_arrivals(200.0, lazy))
        assert eager.getstate() == lazy.getstate()

    @given(
        base_rate=st.floats(0.0, 5.0, **finite),
        amplitude=st.floats(0.0, 0.99, **finite),
        weekend=st.floats(0.01, 1.0, **finite),
        peak=st.floats(0.0, 1439.0, **finite),
        seed=seeds,
    )
    @settings(max_examples=100, deadline=None)
    def test_diurnal_matches_expovariate_loop(self, base_rate, amplitude, weekend, peak, seed):
        process = DiurnalPoissonProcess(base_rate, amplitude, weekend, peak)
        ours, reference = twin_streams(seed)
        times = list(process.iter_arrivals(3000.0, ours))
        expected = reference_diurnal(process, 3000.0, reference) if base_rate else []
        assert times == expected
        assert ours.getstate() == reference.getstate()

    @given(
        mean_gap=st.floats(1.0, 500.0, **finite),
        mean_duration=st.floats(1.0, 500.0, **finite),
        burst_rate=st.floats(0.0, 5.0, **finite),
        first_start=st.none() | st.floats(0.0, 3000.0, **finite),
        first_duration=st.none() | st.floats(1.0, 500.0, **finite),
        seed=seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_burst_windows_match_expovariate_loop(
        self, mean_gap, mean_duration, burst_rate, first_start, first_duration, seed
    ):
        process = BurstProcess(mean_gap, mean_duration, burst_rate, first_start, first_duration)
        ours, reference = twin_streams(seed)
        windows = [(w.start, w.end, w.arrivals) for w in process.windows(2000.0, ours)]
        assert windows == reference_windows(process, 2000.0, reference)
        assert ours.getstate() == reference.getstate()
