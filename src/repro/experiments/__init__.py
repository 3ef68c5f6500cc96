"""Paper experiments: one entry point per table and figure, plus ablations.

Grid execution runs through a shared backend supporting supervised
worker-fleet parallelism (:mod:`repro.experiments.parallel`) and a
content-addressed on-disk result cache
(:mod:`repro.experiments.cache`); every entry
point honours ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` (see ``docs/performance.md``).
"""

from .ablations import (
    duplication_ablation,
    migration_ablation,
    overhead_sweep,
    selector_ablation,
    threshold_sweep,
)
from .cache import CacheStats, ResultCache, derive_cell_seed, open_cache
# The sweep's function is not re-exported here: under its submodule's
# name it would shadow the submodule (``repro.experiments.fault_sweep``).
# It is ``repro.fault_sweep`` and ``repro.experiments.fault_sweep.fault_sweep``.
from .fault_sweep import FaultSweep, FaultSweepCell
from .figures import Figure2, Figure4, figure2, figure3, figure4, render_figure3
from .parallel import (
    CellFailure,
    CellOutcome,
    CellTask,
    GridReport,
    execute_cells,
    make_cell_task,
    run_grid_parallel,
)
from .replication import MetricEstimate, ReplicatedComparison, replicate
from .runner import ExperimentCell, ExperimentRunner
from .tables import (
    high_suspension_experiment,
    render,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "duplication_ablation",
    "migration_ablation",
    "overhead_sweep",
    "selector_ablation",
    "threshold_sweep",
    "Figure2",
    "Figure4",
    "figure2",
    "figure3",
    "figure4",
    "render_figure3",
    "CacheStats",
    "ResultCache",
    "derive_cell_seed",
    "open_cache",
    "FaultSweep",
    "FaultSweepCell",
    "CellFailure",
    "CellOutcome",
    "CellTask",
    "GridReport",
    "execute_cells",
    "make_cell_task",
    "run_grid_parallel",
    "MetricEstimate",
    "ReplicatedComparison",
    "replicate",
    "ExperimentCell",
    "ExperimentRunner",
    "high_suspension_experiment",
    "render",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
]
