"""Arrival processes for workload generation.

Two processes model the two job populations the paper describes:

* a :class:`PoissonProcess` for the steady stream of low-priority
  simulation jobs submitted by engineers throughout the year, and
* a :class:`BurstProcess` (a two-state Markov-modulated Poisson
  process) for high-priority jobs, which the paper observes to be
  "bursty in nature ... job suspension can spike suddenly due to the
  arrival of a large number of higher priority jobs and last from
  several hours to a week" (Section 2.3).

Both produce sorted arrival times (in simulated minutes) over a finite
horizon.  :class:`BurstProcess` additionally reports the burst windows
it generated, so the workload generator can pin each burst's jobs to a
specific set of preferred pools — the mechanism behind the paper's
observation that suspension arises even at 40–60% overall utilization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import log as _log
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["PoissonProcess", "DiurnalPoissonProcess", "BurstProcess", "BurstWindow"]


@dataclass(frozen=True)
class BurstWindow:
    """A single on-period of the burst process.

    Attributes:
        start: minute at which the burst begins.
        end: minute at which the burst ends (exclusive).
        arrivals: arrival times falling inside the window, sorted.
    """

    start: float
    end: float
    arrivals: Tuple[float, ...]

    @property
    def duration(self) -> float:
        """Length of the burst in minutes."""
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class PoissonProcess:
    """Homogeneous Poisson process with ``rate`` arrivals per minute."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ConfigurationError(f"PoissonProcess: rate must be >= 0, got {self.rate}")

    def arrivals(self, horizon: float, rng: random.Random) -> List[float]:
        """Generate sorted arrival times on ``[0, horizon)``."""
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        return list(self.iter_arrivals(horizon, rng))

    def iter_arrivals(self, horizon: float, rng: random.Random) -> Iterator[float]:
        """Lazily yield arrival times on ``[0, horizon)``."""
        rate = self.rate
        if rate == 0:
            return
        draw = rng.random
        t = 0.0
        while True:
            # rng.expovariate(rate), inlined: the same arithmetic.
            t += -_log(1.0 - draw()) / rate
            if t >= horizon:
                return
            yield t

    def expected_count(self, horizon: float) -> float:
        """Expected number of arrivals over ``horizon`` minutes."""
        return self.rate * horizon


@dataclass(frozen=True)
class DiurnalPoissonProcess:
    """Non-homogeneous Poisson process with daily and weekly cycles.

    Engineers submit simulation jobs during working hours; a year-long
    trace therefore shows day/night and weekday/weekend structure (the
    background texture of the paper's Figure 4).  The instantaneous
    rate is::

        rate(t) = base_rate * day(t) * week(t)
        day(t)  = 1 + daily_amplitude * cos(2*pi*(t - peak_minute_of_day)/1440)
        week(t) = weekend_factor on Saturday/Sunday, else 1

    sampled by thinning against the maximum rate.  Time zero is Monday
    00:00.

    Attributes:
        base_rate: mean arrivals/minute before modulation.
        daily_amplitude: relative size of the day/night swing, in
            ``[0, 1)``.
        weekend_factor: rate multiplier applied on days 5 and 6.
        peak_minute_of_day: minute of the day (0-1439) of peak load.
    """

    base_rate: float
    daily_amplitude: float = 0.4
    weekend_factor: float = 0.5
    peak_minute_of_day: float = 840.0

    def __post_init__(self) -> None:
        if self.base_rate < 0:
            raise ConfigurationError("base_rate must be >= 0")
        if not 0.0 <= self.daily_amplitude < 1.0:
            raise ConfigurationError("daily_amplitude must be in [0, 1)")
        if not 0.0 < self.weekend_factor <= 1.0:
            raise ConfigurationError("weekend_factor must be in (0, 1]")
        if not 0.0 <= self.peak_minute_of_day < 1440.0:
            raise ConfigurationError("peak_minute_of_day must be in [0, 1440)")

    def rate_at(self, minute: float) -> float:
        """Instantaneous arrival rate at ``minute``."""
        day_phase = (
            2.0 * math.pi * (minute - self.peak_minute_of_day) / 1440.0
        )
        day_factor = 1.0 + self.daily_amplitude * math.cos(day_phase)
        day_of_week = int(minute // 1440.0) % 7
        week_factor = self.weekend_factor if day_of_week >= 5 else 1.0
        return self.base_rate * day_factor * week_factor

    def iter_arrivals(self, horizon: float, rng: random.Random) -> Iterator[float]:
        """Lazily yield arrival times on ``[0, horizon)`` (thinning)."""
        if self.base_rate == 0:
            return
        max_rate = self.base_rate * (1.0 + self.daily_amplitude)
        draw = rng.random
        rate_at = self.rate_at
        t = 0.0
        while True:
            t += -_log(1.0 - draw()) / max_rate  # rng.expovariate(max_rate)
            if t >= horizon:
                return
            if draw() <= rate_at(t) / max_rate:
                yield t

    def arrivals(self, horizon: float, rng: random.Random) -> List[float]:
        """Sorted arrival times on ``[0, horizon)``."""
        return list(self.iter_arrivals(horizon, rng))

    def expected_count(self, horizon: float) -> float:
        """Expected arrivals over ``horizon`` minutes (trapezoid integral)."""
        if horizon <= 0 or self.base_rate == 0:
            return 0.0
        step = 30.0
        total = 0.0
        t = 0.0
        while t < horizon:
            upper = min(t + step, horizon)
            total += (self.rate_at(t) + self.rate_at(upper)) / 2.0 * (upper - t)
            t = upper
        return total


@dataclass(frozen=True)
class BurstProcess:
    """Two-state (off/on) Markov-modulated Poisson process.

    In the *off* state no jobs arrive.  Off periods are exponential with
    mean ``mean_gap``; on entering the *on* state a burst of exponential
    mean duration ``mean_duration`` begins, during which arrivals are
    Poisson with rate ``burst_rate``.

    When ``first_burst_start`` is set the first window is deterministic
    (starting exactly there, lasting ``first_burst_duration`` or
    ``mean_duration``); the process continues stochastically after it.
    This mirrors the paper's evaluation design, which *selects* a week
    known to contain "a typical burst of high-priority jobs" — the
    busy-week scenario conditions on the burst the same way.

    The defaults are not meaningful on their own; the scenario presets
    in :mod:`repro.workload.scenarios` choose values that make bursts
    last "from several hours to a week" as in the paper.
    """

    mean_gap: float
    mean_duration: float
    burst_rate: float
    first_burst_start: Optional[float] = None
    first_burst_duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mean_gap <= 0:
            raise ConfigurationError(f"BurstProcess: mean_gap must be > 0, got {self.mean_gap}")
        if self.mean_duration <= 0:
            raise ConfigurationError(
                f"BurstProcess: mean_duration must be > 0, got {self.mean_duration}"
            )
        if self.burst_rate < 0:
            raise ConfigurationError(
                f"BurstProcess: burst_rate must be >= 0, got {self.burst_rate}"
            )
        if self.first_burst_start is not None and self.first_burst_start < 0:
            raise ConfigurationError("BurstProcess: first_burst_start must be >= 0")
        if self.first_burst_duration is not None and self.first_burst_duration <= 0:
            raise ConfigurationError("BurstProcess: first_burst_duration must be > 0")

    def windows(self, horizon: float, rng: random.Random) -> List[BurstWindow]:
        """Generate the burst windows (with their arrivals) on ``[0, horizon)``."""
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        result: List[BurstWindow] = []
        # Each gap is rng.expovariate(rate), inlined with the same
        # arithmetic: -log(1 - random()) / rate.
        draw = rng.random
        gap_rate = 1.0 / self.mean_gap
        duration_rate = 1.0 / self.mean_duration
        burst_rate = self.burst_rate
        t = 0.0
        first = True
        while True:
            if first and self.first_burst_start is not None:
                t = self.first_burst_start
            else:
                t += -_log(1.0 - draw()) / gap_rate
            if t >= horizon:
                return result
            if first and self.first_burst_start is not None:
                duration = self.first_burst_duration or self.mean_duration
            else:
                duration = -_log(1.0 - draw()) / duration_rate
            first = False
            end = min(t + duration, horizon)
            arrivals: List[float] = []
            if burst_rate > 0:
                append = arrivals.append
                a = t
                while True:
                    a += -_log(1.0 - draw()) / burst_rate
                    if a >= end:
                        break
                    append(a)
            result.append(BurstWindow(start=t, end=end, arrivals=tuple(arrivals)))
            t = end

    def arrivals(self, horizon: float, rng: random.Random) -> List[float]:
        """Flattened, sorted arrival times of all bursts on ``[0, horizon)``."""
        times: List[float] = []
        for window in self.windows(horizon, rng):
            times.extend(window.arrivals)
        return times

    def expected_count(self, horizon: float) -> float:
        """Expected number of arrivals over ``horizon`` minutes.

        The long-run fraction of time spent in the on state is
        ``mean_duration / (mean_gap + mean_duration)``; a deterministic
        first burst contributes its full window separately.
        """
        on_fraction = self.mean_duration / (self.mean_gap + self.mean_duration)
        if self.first_burst_start is None:
            return self.burst_rate * on_fraction * horizon
        if self.first_burst_start >= horizon:
            return 0.0
        duration = self.first_burst_duration or self.mean_duration
        first_end = min(self.first_burst_start + duration, horizon)
        deterministic = self.burst_rate * (first_end - self.first_burst_start)
        return deterministic + self.burst_rate * on_fraction * max(0.0, horizon - first_end)
