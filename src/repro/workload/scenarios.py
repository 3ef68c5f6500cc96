"""Calibrated scenario presets.

A :class:`Scenario` bundles everything one experiment needs — a cluster,
a trace, and the knobs derived from the paper's setup.  The presets
below correspond to the paper's evaluation conditions:

* :func:`busy_week` — the paper's main workload: jobs submitted during
  a one-week busy period containing "a typical burst of high-priority
  jobs and as a result, a burst of job suspension" (Section 3.1).
  Used by Tables 1–5 and Figure 3.
* :func:`high_load` — the same trace on a cluster with "the number of
  compute cores available to each pool [reduced] by half" (Tables 2–5).
* :func:`high_suspension` — an engineered trace whose NoRes suspend
  rate is an order of magnitude higher (~14% in the paper's variant),
  used for the in-text high-suspension experiment.
* :func:`year` — a long-horizon trace for the Section-2 analyses
  (Figure 2's suspension-time CDF, Figure 4's utilization/suspension
  time series).
* :func:`smoke` — a tiny deterministic scenario for unit tests.

A :class:`ScenarioRecipe` names one of these builds — the builder and
its arguments — without running it, and carries the ``name``, ``seed``
and ``wait_threshold`` the build will have.  A grid cell that holds a
recipe ships a few hundred bytes instead of a trace, and is built where
it runs, through the :class:`ScenarioBuilds` cache of the grid pass
that runs it.  Every scenario these builders return carries its recipe
too, so cache keys name the recipe whether a cell holds the recipe or
the built scenario.

Every preset takes ``scale`` (machines-per-pool multiplier, with arrival
rates re-derived from the scaled cluster so utilization is preserved)
and ``seed``.  The derivation targets the paper's operating point:
average utilization around 40% and a NoRes suspend rate on the order of
1% during the busy week.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .arrivals import BurstProcess, DiurnalPoissonProcess
from .cluster import ClusterSpec, ClusterTemplate
from .distributions import RandomStreams
from .generator import WorkloadGenerator, WorkloadModel
from .trace import Trace

__all__ = [
    "GENERATOR_VERSION",
    "Scenario",
    "ScenarioBuilds",
    "ScenarioRecipe",
    "busy_week",
    "high_load",
    "high_suspension",
    "year",
    "smoke",
    "WEEK_MINUTES",
    "DEFAULT_WAIT_THRESHOLD",
]

#: One week, the paper's busy-period length (86,080 − 76,000 ≈ 10,080).
WEEK_MINUTES = 10_080.0

#: The paper's waiting-time rescheduling threshold: "30 minutes, which is
#: about twice the expected average waiting time in the original system".
DEFAULT_WAIT_THRESHOLD = 30.0

#: Version of what the builders below generate.  A recipe's cache key
#: names its builder and arguments, not its jobs, so bump this whenever
#: a builder's trace or cluster changes for the same arguments.
#: ``tests/test_generation_golden.py`` pins what they generate next to
#: this number, so re-pinning a digest without bumping it fails.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """A ready-to-simulate experiment condition.

    ``recipe`` is the :class:`ScenarioRecipe` of the builder call that
    made the scenario, when a builder of this module did (``None``
    otherwise).  A cache key names it instead of hashing the trace and
    cluster, so a scenario derived with :func:`dataclasses.replace` that
    changes either must pass ``recipe=None``;
    :meth:`with_cores_halved` carries it over itself.
    """

    name: str
    description: str
    cluster: ClusterSpec
    trace: Trace
    seed: int
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD
    recipe: Optional["ScenarioRecipe"] = field(default=None, compare=False, repr=False)

    def with_cores_halved(self) -> "Scenario":
        """This scenario on the paper's high-load (half-cores) cluster."""
        return replace(
            self,
            name=_cores_halved_name(self.name),
            description=f"{self.description} (cores halved)",
            cluster=self.cluster.with_cores_halved(),
            recipe=self.recipe.with_cores_halved() if self.recipe is not None else None,
        )


def _cores_halved_name(name: str) -> str:
    return f"{name}+high-load"


#: Builders a recipe can name, by name.
_RECIPE_BUILDERS: Dict[str, Callable[..., Scenario]] = {}
#: Builder name -> the name of the scenario it builds; builders take
#: their scenario's name from here, through their recipe.
_SCENARIO_NAMES: Dict[str, str] = {}
#: Builder name -> the builder it re-runs on the half-cores cluster.
_CORES_HALVED_OF: Dict[str, str] = {}


def _recipe_builder(scenario_name: str):
    """Register a builder a :class:`ScenarioRecipe` can name, whose
    scenarios are called ``scenario_name``."""

    def register(builder):
        _RECIPE_BUILDERS[builder.__name__] = builder
        _SCENARIO_NAMES[builder.__name__] = scenario_name
        return builder

    return register


def _cores_halved_builder(base):
    """Register a builder that re-runs ``base`` on the half-cores cluster."""

    def register(builder):
        _RECIPE_BUILDERS[builder.__name__] = builder
        _CORES_HALVED_OF[builder.__name__] = base.__name__
        return builder

    return register


def _derive_base_rate(
    cluster: ClusterSpec, model_runtime_mean: float, mean_cores: float, utilization: float
) -> float:
    """Arrival rate that offers ``utilization`` load to ``cluster``."""
    if utilization <= 0:
        raise ConfigurationError(f"utilization target must be > 0, got {utilization}")
    return utilization * cluster.total_cores / (model_runtime_mean * mean_cores)


def _burst_rate_for(
    cluster: ClusterSpec,
    burst_pool_ids: Tuple[str, ...],
    pools_per_burst: int,
    burst_runtime_mean: float,
    mean_cores: float,
    overload: float,
) -> float:
    """Burst arrival rate that overloads a burst's target pools.

    A burst targets ``pools_per_burst`` pools; the rate is chosen so the
    offered load on those pools is ``overload`` times their capacity,
    which forces preemption of the low-priority jobs running there.
    """
    per_pool_cores = sum(cluster.pool(p).total_cores for p in burst_pool_ids) / len(
        burst_pool_ids
    )
    target_capacity = per_pool_cores * pools_per_burst
    return overload * target_capacity / (burst_runtime_mean * mean_cores)


def _build_scenario(
    recipe: "ScenarioRecipe",
    description: str,
    *,
    scale: float,
    seed: int,
    horizon: float,
    utilization: float,
    burst_gap: float,
    burst_duration: float,
    burst_overload: float,
    pools_per_burst: int,
    burst_pool_class: str = "large",
    medium_fraction: float = 0.10,
    task_size: int = 0,
    first_burst_start: float = None,
    diurnal: bool = False,
) -> Scenario:
    template = ClusterTemplate(scale=scale)
    streams = RandomStreams(seed)
    cluster = template.build(streams)
    group_sets = _business_group_pool_sets(template)

    # Burst targets: the large pools (plus medium ones for the
    # high-suspension scenario, widening the blast radius).
    large = template.large_pool_ids()
    if burst_pool_class == "large":
        burst_choices = large
    elif burst_pool_class == "large+medium":
        medium_count = template.size_classes[1][1]
        first_medium = len(large)
        burst_choices = large + tuple(
            f"pool-{i:02d}" for i in range(first_medium, first_medium + medium_count)
        )
    else:
        raise ConfigurationError(f"unknown burst_pool_class: {burst_pool_class!r}")

    # Assemble the model in two steps: attribute distributions first so
    # their analytic means can drive the rate derivation.
    probe = WorkloadModel(
        horizon_minutes=horizon,
        base_rate=1.0,  # placeholder, replaced below
        burst=BurstProcess(mean_gap=burst_gap, mean_duration=burst_duration, burst_rate=1.0),
        burst_pool_choices=burst_choices,
        burst_pools_per_burst=pools_per_burst,
        medium_priority_fraction=medium_fraction,
        group_pool_sets=group_sets,
        task_size=task_size,
    )
    mean_cores = probe.cores.mean()
    base_rate = _derive_base_rate(cluster, probe.runtime.mean(), mean_cores, utilization)
    burst_rate = _burst_rate_for(
        cluster,
        burst_choices,
        pools_per_burst,
        probe.burst_runtime.mean(),
        mean_cores,
        burst_overload,
    )
    arrival_process = (
        DiurnalPoissonProcess(base_rate=base_rate) if diurnal else None
    )
    model = replace(
        probe,
        base_rate=base_rate,
        arrival_process=arrival_process,
        burst=BurstProcess(
            mean_gap=burst_gap,
            mean_duration=burst_duration,
            burst_rate=burst_rate,
            first_burst_start=first_burst_start,
            first_burst_duration=burst_duration if first_burst_start is not None else None,
        ),
    )
    trace = WorkloadGenerator(model, streams.spawn("workload")).generate()
    return Scenario(
        name=recipe.name,
        description=description,
        cluster=cluster,
        trace=trace,
        seed=seed,
        recipe=recipe,
    )


def _business_group_pool_sets(template: ClusterTemplate) -> Tuple[Tuple[str, ...], ...]:
    """Candidate-pool sets for eight Linux business groups.

    Each group runs in three of the four large pools, two Linux medium
    pools and one small pool — the NetBatch ownership pattern where a
    group's jobs "only run in specific sets of physical pools".  The
    overlap with the large (burst-target) pools is what makes naive
    random rescheduling risky: a suspended job's alternates are, with
    sizeable probability, other pools the same burst has overwhelmed.
    """
    large_count = template.size_classes[0][1]
    medium_count = template.size_classes[1][1]
    small_count = template.size_classes[2][1]
    windows = set(template.windows_pool_ids())
    large = [f"pool-{i:02d}" for i in range(large_count)]
    medium = [
        f"pool-{i:02d}"
        for i in range(large_count, large_count + medium_count)
        if f"pool-{i:02d}" not in windows
    ]
    small = [
        f"pool-{i:02d}"
        for i in range(large_count + medium_count, large_count + medium_count + small_count)
    ]
    groups = []
    for g in range(8):
        pools = (
            large[g % len(large)],
            large[(g + 1) % len(large)],
            large[(g + 2) % len(large)],
            medium[g % len(medium)],
            medium[(g + 3) % len(medium)],
            small[g % len(small)],
        )
        groups.append(tuple(dict.fromkeys(pools)))
    return tuple(groups)


@_recipe_builder("busy-week")
def busy_week(scale: float = 0.25, seed: int = 2010) -> Scenario:
    """The paper's one-week busy period under normal load.

    One-to-two high-priority bursts land on the large pools mid-week,
    suspending the low-priority jobs running there while the rest of the
    site stays moderately (~40%) utilized.
    """
    return _build_scenario(
        ScenarioRecipe.of(busy_week, scale, seed),
        "one-week busy period, normal load (~40% utilization)",
        scale=scale,
        seed=seed,
        horizon=WEEK_MINUTES,
        utilization=0.34,
        burst_gap=30000.0,
        burst_duration=1000.0,
        burst_overload=1.05,
        pools_per_burst=4,
        task_size=12,
        first_burst_start=1800.0,
    )


@_cores_halved_builder(busy_week)
def high_load(scale: float = 0.25, seed: int = 2010) -> Scenario:
    """The busy week re-run on the half-cores cluster (paper Tables 2-5)."""
    return ScenarioRecipe.of(high_load, scale, seed).build()


@_recipe_builder("high-suspension")
def high_suspension(scale: float = 0.25, seed: int = 2010) -> Scenario:
    """An engineered trace with an order-of-magnitude higher suspend rate.

    The paper: "To investigate the performance of rescheduling under
    high suspend rate, we created a job trace that result in a suspend
    rate of 14%."  Here the bursts are longer, more frequent, hotter and
    spread over both large and medium pools, so a much larger share of
    the low-priority population gets preempted at least once.
    """
    return _build_scenario(
        ScenarioRecipe.of(high_suspension, scale, seed),
        "engineered heavy-burst week with ~10x the baseline suspend rate",
        scale=scale,
        seed=seed,
        horizon=WEEK_MINUTES,
        utilization=0.45,
        burst_gap=400.0,
        burst_duration=180.0,
        burst_overload=2.0,
        pools_per_burst=6,
        burst_pool_class="large+medium",
        task_size=12,
        first_burst_start=300.0,
    )


@_recipe_builder("year")
def year(
    scale: float = 0.06,
    seed: int = 2010,
    horizon: float = 200_000.0,
    diurnal: bool = False,
) -> Scenario:
    """A long-horizon trace for the Section-2 trace analyses.

    Defaults to ~200k minutes (a bit over four months) at small cluster
    scale so the analysis benches finish in minutes; pass
    ``horizon=500_000`` to match the paper's full span.  With
    ``diurnal=True`` the base stream carries day/night and
    weekday/weekend cycles (Figure 4's background texture) instead of
    being a flat Poisson process.
    """
    return _build_scenario(
        ScenarioRecipe.of(year, scale, seed, horizon, diurnal),
        f"long-horizon ({horizon:.0f} min) trace for Figures 2 and 4",
        scale=scale,
        seed=seed,
        horizon=horizon,
        utilization=0.34,
        burst_gap=8000.0,
        burst_duration=800.0,
        burst_overload=1.05,
        pools_per_burst=4,
        diurnal=diurnal,
    )


@_recipe_builder("smoke")
def smoke(seed: int = 7) -> Scenario:
    """A tiny deterministic scenario for unit and integration tests.

    A miniature of the calibrated busy week: six pools (three larger,
    three smaller, one of them Windows), a few hundred jobs over three
    simulated days, and one guaranteed moderate burst pinned to two of
    the larger pools — a minority of the cluster, like the paper's
    setting.  Small enough that a full simulation takes well under a
    second.
    """
    template = ClusterTemplate(
        size_classes=(("large", 3, 5), ("small", 3, 3)),
        windows_pool_count=1,
        scale=1.0,
    )
    streams = RandomStreams(seed)
    cluster = template.build(streams)
    burst = BurstProcess(
        mean_gap=1e9,
        mean_duration=400.0,
        burst_rate=1.0,
        first_burst_start=700.0,
        first_burst_duration=400.0,
    )
    probe = WorkloadModel(
        horizon_minutes=4320.0,
        base_rate=1.0,
        burst=burst,
        burst_pool_choices=template.large_pool_ids(),
        burst_pools_per_burst=2,
        task_size=4,
    )
    mean_cores = probe.cores.mean()
    base_rate = _derive_base_rate(cluster, probe.runtime.mean(), mean_cores, 0.34)
    burst_rate = _burst_rate_for(
        cluster, template.large_pool_ids(), 2, probe.burst_runtime.mean(), mean_cores, 1.4
    )
    model = replace(
        probe,
        base_rate=base_rate,
        burst=replace(burst, burst_rate=burst_rate),
    )
    trace = WorkloadGenerator(model, streams.spawn("workload")).generate()
    recipe = ScenarioRecipe.of(smoke, seed)
    return Scenario(
        name=recipe.name,
        description="tiny three-day scenario for tests",
        cluster=cluster,
        trace=trace,
        seed=seed,
        recipe=recipe,
    )


@dataclass(frozen=True)
class ScenarioRecipe:
    """One scenario build, named by its builder and arguments.

    ``name``, ``seed`` and ``wait_threshold`` are those of the scenario
    :meth:`build` returns, so a cell id, child seed and policy defaults
    derive from the recipe exactly as from the built scenario.  Make
    one with :meth:`of`.

    Attributes:
        builder: the builder's name (``busy_week``,
            ``high_suspension``, ``year`` or ``smoke``).
        args: every builder argument, defaults included, as
            ``(name, value)`` pairs in signature order.
        cores_halved: the build is re-run on the half-cores cluster
            (:meth:`Scenario.with_cores_halved`); a ``high_load``
            recipe is its ``busy_week`` recipe with this set.
    """

    builder: str
    args: Tuple[Tuple[str, Any], ...]
    name: str
    seed: int
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD
    cores_halved: bool = False

    @classmethod
    def of(cls, builder, *args, **kwargs) -> "ScenarioRecipe":
        """The recipe of ``builder(*args, **kwargs)``; ``builder`` is a
        builder function of this module or its name."""
        key = builder if isinstance(builder, str) else builder.__name__
        known = _RECIPE_BUILDERS.get(key)
        if known is None or not (isinstance(builder, str) or builder is known):
            raise ConfigurationError(
                f"no scenario recipe for {key!r} "
                f"(available: {', '.join(_RECIPE_BUILDERS)})"
            )
        if key in _CORES_HALVED_OF:
            return cls.of(_CORES_HALVED_OF[key], *args, **kwargs).with_cores_halved()
        bound = inspect.signature(known).bind(*args, **kwargs)
        bound.apply_defaults()
        return cls(key, tuple(bound.arguments.items()), _SCENARIO_NAMES[key], bound.arguments["seed"])

    @staticmethod
    def can_name(builder) -> bool:
        """Whether :meth:`of` takes the builder function ``builder``."""
        return _RECIPE_BUILDERS.get(getattr(builder, "__name__", None)) is builder

    def with_cores_halved(self) -> Optional["ScenarioRecipe"]:
        """The recipe of this build on the half-cores cluster; ``None``
        if its cores are halved already (no recipe halves twice)."""
        if self.cores_halved:
            return None
        return replace(self, name=_cores_halved_name(self.name), cores_halved=True)

    @property
    def base(self) -> Optional["ScenarioRecipe"]:
        """The recipe whose build this one halves the cores of, else ``None``."""
        if not self.cores_halved:
            return None
        return replace(self, name=_SCENARIO_NAMES[self.builder], cores_halved=False)

    def build(self) -> Scenario:
        """Run the builder."""
        base = self.base
        if base is not None:
            return base.build().with_cores_halved()
        return _RECIPE_BUILDERS[self.builder](**dict(self.args))


class ScenarioBuilds:
    """The scenarios one grid pass built from recipes; the last few are kept.

    A grid pass (a fabric worker's loop, or the coordinator's serial
    pass) owns one and drops it when the pass ends, so no trace
    outlives its grid.  A high-load recipe is its busy-week build with
    the cores halved, so it generates no trace of its own.
    """

    #: Built scenarios kept, most recently used first.  A grid's cells
    #: sharing a scenario run together, so a few are enough.
    SIZE = 4

    def __init__(self) -> None:
        self._kept: "OrderedDict[ScenarioRecipe, Scenario]" = OrderedDict()
        #: Traces generated (builder runs) so far.
        self.built = 0

    def holds(self, scenario) -> bool:
        """Whether ``scenario`` is ready without generating a trace."""
        if not isinstance(scenario, ScenarioRecipe):
            return True
        return scenario in self._kept or scenario.base in self._kept

    def get(self, scenario) -> Scenario:
        """``scenario`` built (a built :class:`Scenario` is returned as is)."""
        if not isinstance(scenario, ScenarioRecipe):
            return scenario
        built = self._kept.get(scenario)
        if built is not None:
            self._kept.move_to_end(scenario)
            return built
        base = scenario.base
        if base is not None:
            built = self.get(base).with_cores_halved()
        else:
            built = scenario.build()
            self.built += 1
        self._kept[scenario] = built
        if len(self._kept) > self.SIZE:
            self._kept.popitem(last=False)
        return built

    def resolve(self, task):
        """``task`` (a grid cell) with its scenario built through this cache."""
        scenario = getattr(task, "scenario", None)
        if not isinstance(scenario, ScenarioRecipe):
            return task
        return replace(task, scenario=self.get(scenario))
