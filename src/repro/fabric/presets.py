"""Named grid builders for the fabric CLI and benchmarks.

A fabric run needs a grid of
:class:`~repro.experiments.parallel.CellTask` — fully specified,
picklable, content-addressed cells.  This module builds the three
grids the CLI (``repro run-grid --preset``), the CI smoke leg and the
committed benchmark all share, so "the fault-sweep grid" means the
same cells everywhere a digest is compared.

Every builder is deterministic in its arguments: same preset + scale
+ seed → same cell ids, same cache keys, same derived per-cell seeds,
whichever host builds it.  The cells carry
:class:`~repro.workload.scenarios.ScenarioRecipe` scenarios, so building
a grid generates no trace: the process that runs a cell builds it.  That property is what lets a coordinator
and its workers (or two static shards) construct the grid
independently and still agree on every cell.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..experiments import presets as exp_presets
from ..experiments.fault_sweep import fault_sweep_experiment
from ..experiments.parallel import CellTask, make_cell_task
from ..experiments.tables import TABLES
from ..policies import policy_from_spec
from ..schedulers.initial import RoundRobinScheduler
from ..simulator.config import SimulationConfig
from ..workload.scenarios import ScenarioRecipe, smoke

__all__ = ["GRID_PRESETS", "build_grid", "fault_sweep_grid", "smoke_grid", "table_grid"]

#: Default policy families per preset, as registry spec strings.  Going
#: through the registry keeps the instances bit-identical to direct
#: construction (the builtins delegate to the same factories) while
#: stamping each cell with its ``policy_spec`` for telemetry/provenance.
_TABLE_POLICY_SPECS = (
    "NoRes", "ResSusUtil", "ResSusRand", "ResSusWaitUtil", "ResSusWaitRand"
)
_SMOKE_POLICY_SPECS = ("NoRes", "ResSusUtil", "ResSusWaitUtil")


def _build_policies(specs: Sequence[str], scenario) -> List[object]:
    """Fresh policy instances for one scenario (or recipe), from registry specs."""
    return [
        policy_from_spec(spec, defaults={"wait_threshold": scenario.wait_threshold})
        for spec in specs
    ]


def fault_sweep_grid(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    mtbf_minutes: Optional[Sequence[float]] = None,
    mttr_minutes: Optional[float] = None,
    policies: Optional[Sequence[str]] = None,
) -> List[CellTask]:
    """The (MTBF x policy) churn grid of ``repro faults``, as cells.

    The fault-sweep experiment's cells
    (:func:`~repro.experiments.fault_sweep.fault_sweep_experiment`),
    summary only: one scenario, the three-policy fault family (override
    with ``policies``, a sequence of registry spec strings), and one
    cell per policy and rung of the MTBF ladder.
    """
    experiment = fault_sweep_experiment(mtbf_minutes, mttr_minutes, keep_results=False)
    return experiment.tasks(scale, seed, policies=policies)


def table_grid(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> List[CellTask]:
    """The paper's five policies under normal load: Table 1's cells, Table 4's strategies added."""
    return TABLES["1"].tasks(scale, seed, policies=policies or _TABLE_POLICY_SPECS)


def smoke_grid(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    n_seeds: int = 4,
    policies: Optional[Sequence[str]] = None,
) -> List[CellTask]:
    """Many cheap cells: the smoke scenario across seeds x 3 policies.

    Millisecond-scale cells (``scale`` is accepted for signature
    uniformity but the smoke scenario is fixed-size), sized for CI
    smoke runs and for the scheduling-bound fabric benchmark where
    per-cell cost is padded via ``REPRO_FABRIC_CELL_FLOOR``.
    """
    base_seed = exp_presets.seed(seed)
    config = SimulationConfig(strict=False)
    specs = tuple(policies) if policies else _SMOKE_POLICY_SPECS
    tasks: List[CellTask] = []
    for i in range(n_seeds):
        scenario = ScenarioRecipe.of(smoke, seed=base_seed + i)
        for policy in _build_policies(specs, scenario):
            tasks.append(
                make_cell_task(
                    index=len(tasks),
                    scenario=scenario,
                    policy=policy,
                    scheduler=RoundRobinScheduler(),
                    config=config,
                )
            )
    return tasks


#: Preset name -> grid builder (scale, seed) -> tasks.
GRID_PRESETS: Dict[str, Callable[..., List[CellTask]]] = {
    "fault-sweep": fault_sweep_grid,
    "table1": table_grid,
    "smoke": smoke_grid,
}


def build_grid(
    preset: str,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> List[CellTask]:
    """Build a named grid, raising on unknown names.

    ``policies`` (registry spec strings, e.g. ``["NoRes",
    "dfrs:share=0.5"]``) replaces the preset's default policy family.
    """
    try:
        builder = GRID_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown grid preset {preset!r} "
            f"(available: {', '.join(sorted(GRID_PRESETS))})"
        ) from None
    return builder(scale=scale, seed=seed, policies=policies)
