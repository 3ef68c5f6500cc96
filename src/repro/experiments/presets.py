"""Shared experiment parameters.

All experiment entry points honour two environment variables so the
benchmark suite can be scaled without editing code:

* ``REPRO_SCALE`` — cluster/workload scale factor (default 0.25 for the
  table experiments).  Larger values approach the paper's deployment
  size at the cost of runtime.
* ``REPRO_SEED`` — workload seed (default 2010, the publication year).

The execution backend honours three more (see ``docs/performance.md``):

* ``REPRO_WORKERS`` — local worker-fleet width for experiment grids
  (default 1 = serial; parallel results are bit-identical to serial).
* ``REPRO_CACHE_DIR`` — directory for the content-addressed on-disk
  result cache; unset disables caching.
* ``REPRO_NO_CACHE`` — set to ``1``/``true``/``yes`` to bypass the
  cache even when a cache directory is configured.

The fault-injection sweep (``repro faults`` / ``docs/robustness.md``)
adds two more:

* ``REPRO_FAULT_MTBFS`` — comma-separated machine MTBFs in minutes.
* ``REPRO_FAULT_MTTR`` — mean machine repair time in minutes.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_TABLE_SCALE",
    "DEFAULT_YEAR_SCALE",
    "DEFAULT_YEAR_HORIZON",
    "DEFAULT_SEED",
    "DEFAULT_WORKERS",
    "DEFAULT_FAULT_MTBFS",
    "DEFAULT_FAULT_MTTR",
    "table_scale",
    "year_scale",
    "year_horizon",
    "seed",
    "workers",
    "cache_dir",
    "no_cache",
    "fault_mtbfs",
    "fault_mttr",
]

DEFAULT_TABLE_SCALE = 0.25
DEFAULT_YEAR_SCALE = 0.08
DEFAULT_YEAR_HORIZON = 200_000.0
DEFAULT_SEED = 2010
DEFAULT_WORKERS = 1

#: Machine MTBFs (minutes) swept by the fault-injection experiment:
#: roughly 1.4 days, 5.6 days and 3 weeks per machine — harsh, moderate
#: and mild churn for a week-long busy-week trace.
DEFAULT_FAULT_MTBFS = (2_000.0, 8_000.0, 32_000.0)

#: Mean machine repair time (minutes) for the fault-injection sweep.
DEFAULT_FAULT_MTTR = 120.0


def _float_env(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def table_scale(scale: Optional[float] = None) -> float:
    """``scale``, or when it is ``None`` the scale for the busy-week table experiments."""
    return _float_env("REPRO_SCALE", DEFAULT_TABLE_SCALE) if scale is None else scale


def year_scale(scale: Optional[float] = None) -> float:
    """``scale``, or when it is ``None`` the scale for the long-horizon figure experiments."""
    return _float_env("REPRO_YEAR_SCALE", DEFAULT_YEAR_SCALE) if scale is None else scale


def year_horizon(horizon: Optional[float] = None) -> float:
    """``horizon``, or when it is ``None`` the horizon (minutes) for the long-horizon figures."""
    return _float_env("REPRO_YEAR_HORIZON", DEFAULT_YEAR_HORIZON) if horizon is None else horizon


def seed(value: Optional[int] = None) -> int:
    """``value``, or when it is ``None`` the workload seed for all experiments.

    ``None``, not any falsy value, asks for the preset: seed 0 is a seed.
    """
    if value is not None:
        return value
    raw = os.environ.get("REPRO_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_SEED must be an int, got {raw!r}") from None


def workers(value: Optional[int] = None) -> int:
    """``value``, or when it is ``None`` the worker-process count for grids (``REPRO_WORKERS``)."""
    if value is not None:
        return value
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return DEFAULT_WORKERS
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_WORKERS must be an int, got {raw!r}") from None
    if value < 1:
        raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def cache_dir() -> Optional[str]:
    """Result-cache directory (``REPRO_CACHE_DIR``); ``None`` disables caching."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def no_cache() -> bool:
    """Whether ``REPRO_NO_CACHE`` asks to bypass the result cache."""
    return os.environ.get("REPRO_NO_CACHE", "").strip().lower() in {"1", "true", "yes"}


def fault_mtbfs() -> tuple:
    """Machine MTBFs (minutes) for the fault sweep (``REPRO_FAULT_MTBFS``).

    The override is a comma-separated list of positive minutes, e.g.
    ``REPRO_FAULT_MTBFS=1000,4000``.
    """
    raw = os.environ.get("REPRO_FAULT_MTBFS")
    if raw is None:
        return DEFAULT_FAULT_MTBFS
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_FAULT_MTBFS entries must be numbers, got {part!r}"
            ) from None
        if value <= 0:
            raise ConfigurationError(
                f"REPRO_FAULT_MTBFS entries must be > 0, got {value}"
            )
        values.append(value)
    if not values:
        raise ConfigurationError("REPRO_FAULT_MTBFS must name at least one MTBF")
    return tuple(values)


def fault_mttr() -> float:
    """Mean machine repair time (minutes) for the fault sweep."""
    return _float_env("REPRO_FAULT_MTTR", DEFAULT_FAULT_MTTR)
