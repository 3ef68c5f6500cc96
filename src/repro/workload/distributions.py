"""Random-variate samplers and named random streams.

The workload generator and the stochastic rescheduling policies draw
every random number from a seeded :class:`random.Random` instance, so a
given seed reproduces a trace (and a simulation) bit-for-bit.  To keep
the streams independent of each other — adding a draw to one component
must not perturb another — each component obtains its own named child
stream from :class:`RandomStreams`.

The sampler classes implement a tiny common protocol::

    value = sampler.sample(rng)

where ``rng`` is a :class:`random.Random`.  Samplers are immutable value
objects: they carry their parameters and, for the weighted
:class:`Mixture` and :class:`Categorical` and for :class:`BoundedPareto`,
a lookup table or constants derived from them once at construction.
They carry no state that a draw changes, which makes them safe to share
between generators and trivial to compare in tests; what is derived is
not a dataclass field, so ``repr``, ``==`` and field-based hashing see
the parameters alone.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from math import exp as _exp, log as _log
from random import NV_MAGICCONST as _NV_MAGICCONST
from typing import Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "RandomStreams",
    "Sampler",
    "Constant",
    "Uniform",
    "Exponential",
    "LogNormal",
    "BoundedPareto",
    "Mixture",
    "Categorical",
    "lognormal_from_median",
]


class RandomStreams:
    """A family of independent, reproducible random streams.

    Child streams are derived from a root seed and a stream name by
    hashing, so the mapping ``(seed, name) -> stream`` is stable across
    processes and Python versions (it does not rely on ``hash()``,
    which is salted).

    Example:
        >>> streams = RandomStreams(seed=7)
        >>> a = streams.stream("arrivals")
        >>> b = streams.stream("runtimes")
        >>> a is not b
        True
        >>> streams.stream("arrivals") is a   # memoised
        True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise ConfigurationError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict = {}

    @property
    def seed(self) -> int:
        """The root seed this family was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) child stream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a new independent family derived from this one.

        Useful when a component needs a whole sub-family of streams
        (e.g. one per pool) without colliding with sibling components.
        """
        digest = hashlib.sha256(f"{self._seed}:family:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


class Sampler:
    """Abstract base for immutable random-variate samplers."""

    def sample(self, rng: random.Random) -> float:
        """Draw one variate using ``rng`` as the entropy source."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean of the distribution (for calibration)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Sampler):
    """Degenerate distribution: always returns ``value``."""

    value: float

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(Sampler):
    """Continuous uniform distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ConfigurationError(f"Uniform: high ({self.high}) < low ({self.low})")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class Exponential(Sampler):
    """Exponential distribution parameterised by its mean."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ConfigurationError(f"Exponential: mean must be > 0, got {self.mean_value}")

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_value)

    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class LogNormal(Sampler):
    """Log-normal distribution with log-space parameters ``mu``/``sigma``.

    The median is ``exp(mu)`` and the mean is
    ``exp(mu + sigma**2 / 2)``; use :func:`lognormal_from_median` to
    construct one from those quantities directly.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError(f"LogNormal: sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: random.Random) -> float:
        # rng.lognormvariate(mu, sigma) without its two nested calls:
        # CPython's Kinderman-Monahan normalvariate loop, same arithmetic
        # in the same order, so the draws and the stream's state match.
        draw = rng.random
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                return _exp(self.mu + z * self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma * self.sigma / 2.0)

    def median(self) -> float:
        """Analytic median, ``exp(mu)``."""
        return math.exp(self.mu)


def lognormal_from_median(median: float, sigma: float) -> LogNormal:
    """Build a :class:`LogNormal` from its median and log-space sigma."""
    if median <= 0:
        raise ConfigurationError(f"lognormal median must be > 0, got {median}")
    return LogNormal(mu=math.log(median), sigma=sigma)


@dataclass(frozen=True)
class BoundedPareto(Sampler):
    """Pareto distribution truncated to ``[low, high]``.

    This is the standard model for heavy-tailed batch-job runtimes: most
    jobs are short, a small fraction run for days.  ``alpha`` is the
    tail index; smaller values give heavier tails.
    """

    alpha: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigurationError(f"BoundedPareto: alpha must be > 0, got {self.alpha}")
        if not 0 < self.low < self.high:
            raise ConfigurationError(
                f"BoundedPareto: need 0 < low < high, got low={self.low} high={self.high}"
            )
        la = self.low**self.alpha
        ha = self.high**self.alpha
        # Stored like Mixture's table: not a field, so not part of the value.
        object.__setattr__(self, "_constants", (la, ha, ha * la, -1.0 / self.alpha))

    def sample(self, rng: random.Random) -> float:
        # Inverse-transform sampling of the truncated Pareto CDF.
        u = rng.random()
        la, ha, hala, exponent = self._constants
        return (-(u * ha - u * la - ha) / hala) ** exponent

    def mean(self) -> float:
        a, lo, hi = self.alpha, self.low, self.high
        if math.isclose(a, 1.0):
            return lo * math.log(hi / lo) / (1.0 - lo / hi)
        num = lo**a / (1.0 - (lo / hi) ** a)
        return num * a / (a - 1.0) * (1.0 / lo ** (a - 1.0) - 1.0 / hi ** (a - 1.0))


def _weighted_table(kind: str, noun: str, items: Tuple, weights: Tuple) -> tuple:
    """Validate ``weights``; return the weighted-pick table for ``items``.

    The table is ``(items, cumulative weights, total, hi)``: what
    :meth:`random.Random.choices` rebuilds on every call, so the draw
    ``items[bisect(cum, rng.random() * total, 0, hi)]`` consumes one
    ``random()`` and returns the item ``rng.choices(items, weights)``
    would.  Totals ``choices`` rejects at draw time (not finite, or not
    positive) are rejected here instead.  Owners store the table as a
    plain attribute, not a field, so ``repr``, ``==``,
    ``dataclasses.fields`` and cache keys never see it.
    """
    if len(items) != len(weights):
        raise ConfigurationError(f"{kind}: {noun}s and weights must have equal length")
    if not items:
        raise ConfigurationError(f"{kind}: at least one {noun} required")
    cum = tuple(accumulate(weights))
    total = cum[-1] + 0.0
    if any(w < 0 for w in weights) or total <= 0:
        raise ConfigurationError(f"{kind}: weights must be non-negative and sum > 0")
    if not math.isfinite(total):
        raise ConfigurationError(f"{kind}: weights must have a finite sum")
    return tuple(items), cum, total, len(items) - 1


@dataclass(frozen=True)
class Mixture(Sampler):
    """Finite mixture of component samplers with given weights."""

    components: Tuple[Sampler, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        table = _weighted_table("Mixture", "component", self.components, self.weights)
        object.__setattr__(self, "_table", table)

    def sample(self, rng: random.Random) -> float:
        components, cum, total, hi = self._table
        return components[bisect(cum, rng.random() * total, 0, hi)].sample(rng)

    def mean(self) -> float:
        total = sum(self.weights)
        return sum(w / total * c.mean() for c, w in zip(self.components, self.weights))


@dataclass(frozen=True)
class Categorical:
    """Weighted choice over arbitrary (hashable or not) values.

    Unlike the numeric samplers this returns one of ``values`` verbatim,
    so it is used for machine core counts, OS families and similar
    discrete attributes.
    """

    values: Tuple
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        table = _weighted_table("Categorical", "value", self.values, self.weights)
        object.__setattr__(self, "_table", table)

    def sample(self, rng: random.Random):
        values, cum, total, hi = self._table
        return values[bisect(cum, rng.random() * total, 0, hi)]

    def mean(self) -> float:
        """Weighted mean of the values (requires numeric values)."""
        total = sum(self.weights)
        return sum(w / total * v for v, w in zip(self.values, self.weights))


def empirical_mean(sampler: Sampler, rng: random.Random, draws: int = 10000) -> float:
    """Monte-Carlo estimate of a sampler's mean (testing/calibration aid)."""
    if draws <= 0:
        raise ConfigurationError(f"draws must be > 0, got {draws}")
    return sum(sampler.sample(rng) for _ in range(draws)) / draws


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sequence.

    Shared helper used by calibration code and by the metrics package;
    ``q`` must be in ``[0, 1]``.
    """
    if not sorted_values:
        raise ConfigurationError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile q must be in [0, 1], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    low_value = float(sorted_values[lower])
    high_value = float(sorted_values[upper])
    # a + f*(b-a) rather than a*(1-f) + b*f: the latter can exceed the
    # bounds by one ulp when a == b, which breaks range invariants.
    return low_value + fraction * (high_value - low_value)
