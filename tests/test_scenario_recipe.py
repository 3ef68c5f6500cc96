"""Grid cells that carry a scenario recipe instead of a built scenario.

A :class:`~repro.workload.scenarios.ScenarioRecipe` names a builder and
its arguments.  The guarantees pinned here:

* a recipe carries the ``name``, ``seed`` and ``wait_threshold`` of the
  scenario it builds, and builds exactly the direct build's trace and
  cluster;
* a built scenario carries its recipe, so a cell keys the same whether
  it holds the recipe or the build;
* the grids built from recipes keep the cell ids, child seeds and order
  the grids of built scenarios had (a golden computed before recipes),
  and the experiments beyond the paper keep theirs;
* a manifest of recipe cells is kilobytes, even for ten seeds of the
  paper's experiments;
* a grid pass builds each recipe once (a high-load recipe reuses its
  busy-week build), and a worker claims cells of scenarios it has
  built first.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache, _trace_fingerprint, stable_hash
from repro.experiments.parallel import _simulate_task, make_cell_task, run_grid_parallel
from repro.fabric import SubprocessWorkerBackend, run_grid_fabric, run_worker
from repro.fabric.lease import LeaseStore
from repro.fabric.presets import fault_sweep_grid, smoke_grid, table_grid
from repro.fabric.worker import write_manifest
from repro.policies import policy_from_spec
from repro.simulator.config import SimulationConfig
from repro.validation import CLAIMS, EXPERIMENTS, EXTENSION_CLAIMS, EXTENSIONS
from repro.workload import scenarios
from repro.workload.scenarios import ScenarioBuilds, ScenarioRecipe

FAST = SimulationConfig(strict=False, record_samples=False)

#: Every builder a recipe can name, at small scale: (builder, kwargs).
BUILDS = {
    "smoke": (scenarios.smoke, {"seed": 3}),
    "busy_week": (scenarios.busy_week, {"scale": 0.03, "seed": 11}),
    "high_load": (scenarios.high_load, {"scale": 0.03, "seed": 11}),
    "high_suspension": (scenarios.high_suspension, {"scale": 0.03, "seed": 11}),
    "year": (scenarios.year, {"scale": 0.02, "seed": 11, "horizon": 8_000.0}),
    "year-diurnal": (
        scenarios.year,
        {"scale": 0.02, "seed": 11, "horizon": 8_000.0, "diurnal": True},
    ),
}

#: Grid -> (cells, digest of "index|cell_id|child seed" lines), computed
#: from the grids of built scenarios, before cells carried recipes.
GOLDEN_GRIDS = {
    "smoke_grid()": (12, "219f1fc4102711d0"),
    "smoke_grid(seed=1100, n_seeds=12)": (36, "821beae3b8b54ca1"),
    "table_grid()": (5, "811ae9fd28bd23bc"),
    "fault_sweep_grid()": (9, "244fb7c93128f5c1"),
    "EXPERIMENTS['1']": (3, "7e3666fd6cdda350"),
    "EXPERIMENTS['2']": (3, "dfc4e1db68a34bbc"),
    "EXPERIMENTS['3']": (3, "fd5e42d23bfe4384"),
    "EXPERIMENTS['4']": (3, "572d554822644d1f"),
    "EXPERIMENTS['5']": (3, "4ced96a583a76499"),
    "EXPERIMENTS['high-suspension']": (2, "5b0998654f3480e9"),
    "EXPERIMENTS['figure2']": (1, "efffc6794d4e3a35"),
    "EXPERIMENTS['figure3']": (3, "7e3666fd6cdda350"),
    "EXPERIMENTS['figure4']": (1, "efffc6794d4e3a35"),
    # Pinned when the extensions became entries; the fault sweep's cells
    # are the fault_sweep_grid() preset's.
    "EXTENSIONS['selectors']": (6, "307def73c62468f6"),
    "EXTENSIONS['threshold']": (6, "f572c07e9f80a3f7"),
    "EXTENSIONS['overhead']": (4, "00f5ff74df069fa0"),
    "EXTENSIONS['duplication']": (4, "5ea17b0e1f8a6204"),
    "EXTENSIONS['migration']": (3, "f6f8a2f622abbde8"),
    "EXTENSIONS['fault-sweep']": (9, "244fb7c93128f5c1"),
    "EXTENSIONS['pool-imbalance']": (1, "404bcea97378989f"),
    "EXTENSIONS['task-level']": (2, "523b6b63c7cf92ba"),
}

#: The inter-site cells carry their built multi-site scenario (no
#: recipe names it), so they are pinned apart from GOLDEN_GRIDS.
INTER_SITE_GOLDEN = (4, "06ccf6a3f7e6f97a")

_PRESET_ENV = (
    "REPRO_SCALE", "REPRO_SEED", "REPRO_YEAR_SCALE", "REPRO_YEAR_HORIZON",
    "REPRO_FAULT_MTBFS", "REPRO_FAULT_MTTR",
)


@pytest.fixture
def preset_defaults(monkeypatch):
    """Grids at the presets' built-in defaults, whatever the environment."""
    for name in _PRESET_ENV:
        monkeypatch.delenv(name, raising=False)


def _grids():
    grids = {
        "smoke_grid()": smoke_grid,
        "smoke_grid(seed=1100, n_seeds=12)": lambda: smoke_grid(seed=1100, n_seeds=12),
        "table_grid()": table_grid,
        "fault_sweep_grid()": fault_sweep_grid,
    }
    for key, experiment in EXPERIMENTS.items():
        grids[f"EXPERIMENTS[{key!r}]"] = experiment.tasks
    for key, experiment in EXTENSIONS.items():
        grids[f"EXTENSIONS[{key!r}]"] = experiment.tasks
    return grids


def _digest(tasks):
    lines = "".join(f"{t.index}|{t.cell_id}|{t.config.seed}\n" for t in tasks)
    return (len(tasks), hashlib.sha256(lines.encode()).hexdigest()[:16]), lines


def _validate_grid(seed=None):
    """The cells ``repro validate`` runs, indexed as one grid."""
    needed = {key for claim in CLAIMS for key in claim.needs}
    grid = []
    for key in EXPERIMENTS:
        if key in needed:
            grid += EXPERIMENTS[key].tasks(seed=seed)
    return [replace(task, index=i) for i, task in enumerate(grid)]


class TestRecipeBuildsTheDirectScenario:
    @pytest.mark.parametrize("which", sorted(BUILDS))
    def test_identity_trace_and_cluster(self, which):
        builder, kwargs = BUILDS[which]
        recipe = ScenarioRecipe.of(builder, **kwargs)
        direct = builder(**kwargs)
        assert (recipe.name, recipe.seed, recipe.wait_threshold) == (
            direct.name, direct.seed, direct.wait_threshold
        )
        for built in (recipe.build(), ScenarioBuilds().get(recipe)):
            assert (built.name, built.seed) == (direct.name, direct.seed)
            assert _trace_fingerprint(built.trace) == _trace_fingerprint(direct.trace)
            assert stable_hash(tuple(built.cluster)) == stable_hash(tuple(direct.cluster))

    def test_positional_and_keyword_arguments_make_one_recipe(self):
        assert ScenarioRecipe.of(scenarios.busy_week, 0.03, 11) == ScenarioRecipe.of(
            "busy_week", seed=11, scale=0.03
        )

    def test_unknown_builders_are_refused(self):
        def busy_week(scale, seed):  # a look-alike, not the module's builder
            return None

        for builder in ("bogus", busy_week):
            with pytest.raises(ConfigurationError, match="no scenario recipe"):
                ScenarioRecipe.of(builder, 0.1, 1)

    def test_a_built_scenario_carries_its_recipe_and_shares_its_key(self):
        policy = policy_from_spec("NoRes")

        def key(scenario):
            return make_cell_task(0, scenario, policy, None, FAST).cache_key

        for builder, kwargs in BUILDS.values():
            recipe = ScenarioRecipe.of(builder, **kwargs)
            built = builder(**kwargs)
            assert built.recipe == recipe
            assert key(built) == key(recipe)
        busy = scenarios.busy_week(0.03, 11)
        high = ScenarioRecipe.of(scenarios.high_load, 0.03, 11)
        assert busy.with_cores_halved().recipe == high
        assert key(busy.with_cores_halved()) == key(high) != key(busy)
        assert busy.with_cores_halved().with_cores_halved().recipe is None

    def test_a_scenario_without_a_recipe_keys_by_its_trace(self):
        policy = policy_from_spec("NoRes")

        def key(scenario):
            return make_cell_task(0, scenario, policy, None, FAST).cache_key

        built = scenarios.smoke(seed=5)
        bare = replace(built, recipe=None)
        assert key(bare) != key(built)
        assert key(replace(bare, trace=scenarios.smoke(seed=6).trace)) != key(bare)

    def test_a_recipe_cell_simulates_like_its_built_scenario(self):
        recipe = ScenarioRecipe.of(scenarios.smoke, seed=5)
        policy = policy_from_spec("ResSusUtil")
        by_recipe = make_cell_task(0, recipe, policy, None, FAST)
        by_scenario = make_cell_task(0, recipe.build(), policy, None, FAST)
        assert by_recipe.cell_id == by_scenario.cell_id
        assert by_recipe.config.seed == by_scenario.config.seed
        assert _simulate_task(by_recipe)[1] == _simulate_task(by_scenario)[1]


class TestGridsKeepTheirCells:
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
    def test_cell_ids_child_seeds_and_order(self, name, preset_defaults):
        tasks = _grids()[name]()
        assert all(isinstance(t.scenario, ScenarioRecipe) for t in tasks)
        digest, lines = _digest(tasks)
        assert digest == GOLDEN_GRIDS[name], lines

    def test_inter_site_cell_ids_child_seeds_and_order(self, preset_defaults):
        tasks = EXTENSIONS["inter-site"].tasks()
        digest, lines = _digest(tasks)
        assert digest == INTER_SITE_GOLDEN, lines
        assert {t.scenario.name for t in tasks} == {"multi-site-2"}

    def test_figures_2_and_4_share_one_cache_key(self, preset_defaults):
        (fig2,) = EXPERIMENTS["figure2"].tasks()
        (fig4,) = EXPERIMENTS["figure4"].tasks()
        assert fig2.cache_key == fig4.cache_key

    def test_validate_grid_has_16_distinct_cells(self, preset_defaults):
        grid = _validate_grid()
        assert len(grid) == 22
        assert len({t.cache_key for t in grid}) == 16

    def test_extension_cells_share_the_tables_cells(self, preset_defaults):
        """The ablations' NoRes is Table 2's (as are duplication's
        ResSusUtil and task level's NoRes), task level's ResSusWaitUtil is
        Table 4's, and pool imbalance's NoRes is Figure 3's."""

        def key(experiments, name, policy):
            (task,) = [t for t in experiments[name].tasks() if t.policy.name == policy]
            return task.cache_key

        no_res = key(EXPERIMENTS, "2", "NoRes")
        for name in ("selectors", "threshold", "duplication", "task-level"):
            assert key(EXTENSIONS, name, "NoRes") == no_res, name
        assert key(EXTENSIONS, "duplication", "ResSusUtil") == key(EXPERIMENTS, "2", "ResSusUtil")
        assert key(EXTENSIONS, "task-level", "ResSusWaitUtil") == key(EXPERIMENTS, "4", "ResSusWaitUtil")
        assert key(EXTENSIONS, "pool-imbalance", "NoRes") == key(EXPERIMENTS, "figure3", "NoRes")
        needed = {k for claim in CLAIMS + EXTENSION_CLAIMS for k in claim.needs}
        assert "fault-sweep" not in needed

    def test_cache_key_names_the_recipe_and_generator_version(self, monkeypatch):
        recipe = ScenarioRecipe.of(scenarios.smoke, seed=5)
        policy = policy_from_spec("NoRes")
        key = make_cell_task(0, recipe, policy, None, FAST).cache_key
        assert key == make_cell_task(0, recipe, policy, None, FAST).cache_key
        other = ScenarioRecipe.of(scenarios.smoke, seed=6)
        assert make_cell_task(0, other, policy, None, FAST).cache_key != key
        monkeypatch.setattr(
            "repro.experiments.cache.GENERATOR_VERSION", scenarios.GENERATOR_VERSION + 1
        )
        assert make_cell_task(0, recipe, policy, None, FAST).cache_key != key


class TestManifestSize:
    def test_default_validate_manifest_is_under_1_mb(self, tmp_path, preset_defaults):
        path = write_manifest(_validate_grid(), tmp_path / "validate.manifest")
        assert path.stat().st_size < 1_000_000

    def test_ten_seeds_of_validate_cells_fit_in_1_mb(self, tmp_path, preset_defaults):
        grid = [task for seed in range(2010, 2020) for task in _validate_grid(seed)]
        grid = [replace(task, index=i) for i, task in enumerate(grid)]
        assert len({t.cache_key for t in grid}) == 160
        path = write_manifest(grid, tmp_path / "seeds.manifest")
        assert path.stat().st_size < 1_000_000


@pytest.fixture
def generated(monkeypatch):
    """Count of traces the workload generator produces."""
    calls = []
    real = scenarios.WorkloadGenerator.generate

    def generate(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(scenarios.WorkloadGenerator, "generate", generate)
    return calls


def _busy_and_high_load_cells():
    policy = policy_from_spec("NoRes")
    return [
        make_cell_task(i, ScenarioRecipe.of(builder, 0.02, 4), policy, None, FAST)
        for i, builder in enumerate((scenarios.high_load, scenarios.busy_week))
    ]


class _ComputeOrder:
    """Chaos hooks that only record the order a worker computes cells in."""

    def __init__(self):
        self.keys = []

    def on_compute(self, key, ordinal):
        self.keys.append(key)

    def on_publish(self, cache, key, ordinal):
        pass

    def on_post_publish(self, key, ordinal):
        pass


class TestBuilds:
    def test_serial_pass_generates_the_busy_week_trace_once(self, generated):
        report = run_grid_fabric(_busy_and_high_load_cells(), None)
        assert report.ok
        assert len(generated) == 1

    def test_worker_pass_generates_the_busy_week_trace_once(self, generated, tmp_path):
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        stats = run_worker(_busy_and_high_load_cells(), ResultCache(tmp_path), leases)
        assert stats.computed == 2
        assert stats.built == len(generated) == 1

    def test_a_worker_claims_cells_of_a_built_scenario_first(self, tmp_path):
        recipes = [ScenarioRecipe.of(scenarios.smoke, seed=seed) for seed in (0, 1)]
        # grid order: R/NoRes, S/NoRes, R/ResSusUtil, S/ResSusUtil
        cells = [
            make_cell_task(2 * p + r, recipes[r], policy_from_spec(spec), None, FAST)
            for p, spec in enumerate(("NoRes", "ResSusUtil"))
            for r in (0, 1)
        ]
        order = _ComputeOrder()
        stats = run_worker(
            cells, ResultCache(tmp_path), LeaseStore(tmp_path, run_id="r", worker_id="w"),
            chaos=order,
        )
        assert stats.built == 2
        assert order.keys == [cells[i].cache_key for i in (0, 2, 1, 3)]

    def test_builds_keep_only_the_last_few(self, generated):
        builds = ScenarioBuilds()
        recipes = [ScenarioRecipe.of(scenarios.smoke, seed=s) for s in range(ScenarioBuilds.SIZE + 1)]
        for recipe in recipes:
            builds.get(recipe)
        assert builds.built == len(generated) == len(recipes)
        assert not builds.holds(recipes[0])
        assert all(builds.holds(recipe) for recipe in recipes[1:])
        builds.get(recipes[-1])
        assert builds.built == len(recipes)

    def test_a_fleet_coordinator_generates_no_trace(self, generated, tmp_path):
        report = run_grid_parallel(
            smoke_grid(seed=1100, n_seeds=2), n_workers=2, cache=ResultCache(tmp_path)
        )
        assert report.ok
        assert generated == []
        assert dict(report.worker_totals)["built"] >= 2

    def test_two_workers_report_their_builds(self, tmp_path):
        tasks = smoke_grid(seed=1100, n_seeds=12)
        report = run_grid_fabric(
            tasks, SubprocessWorkerBackend(2), ResultCache(tmp_path), keep_going=True
        )
        assert report.ok
        totals = dict(report.worker_totals)
        assert totals["computed"] == len(tasks)
        # Each of the 12 recipes is built at least once.  A worker
        # builds one again only after evicting it, and it moves on from
        # a built recipe only when that recipe has no claimable cell
        # left; with no lease going stale, none comes back.  So at most
        # once per worker.
        assert 12 <= totals["built"] <= 24
        serial = run_grid_parallel(tasks, n_workers=1)
        assert [o.summary for o in report.outcomes] == [o.summary for o in serial.outcomes]
