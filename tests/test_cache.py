"""Tests for the content-addressed on-disk result cache.

The hygiene contract (exercised by CI's cache-hygiene step): a corrupt,
truncated, stale, or otherwise invalid entry is *detected*, *evicted*
from disk, and transparently *recomputed* — never crashes, never
returns garbage.
"""

from __future__ import annotations

import copyreg
import hashlib
import pickle

import pytest

import repro
from repro.errors import CacheError, ConfigurationError
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cell_cache_key,
    engine_salt,
    open_cache,
    stable_hash,
)
from repro.experiments.runner import ExperimentRunner
from repro.simulator.config import SimulationConfig
from repro.simulator.observer import EventLog
from repro.simulator.results import JobRecord
from repro.telemetry import Instrumentation, MetricsRegistry

FAST = SimulationConfig(strict=False, record_samples=False)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash({"a": 1.5, "b": (1, 2)}) == stable_hash(
            {"b": (1, 2), "a": 1.5}
        )

    def test_distinguishes_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash(1.0) != stable_hash(1)


class TestCellKey:
    def test_key_changes_with_policy(self, smoke_scenario):
        base = cell_cache_key(smoke_scenario, repro.no_res(), None, FAST)
        other = cell_cache_key(smoke_scenario, repro.res_sus_util(), None, FAST)
        assert base != other

    def test_key_changes_with_config(self, smoke_scenario):
        base = cell_cache_key(smoke_scenario, repro.no_res(), None, FAST)
        slower = cell_cache_key(
            smoke_scenario,
            repro.no_res(),
            None,
            SimulationConfig(strict=False, record_samples=False, sample_interval=5.0),
        )
        assert base != slower

    def test_key_changes_with_scenario_content(self):
        a = cell_cache_key(repro.smoke(seed=7), repro.no_res(), None, FAST)
        b = cell_cache_key(repro.smoke(seed=8), repro.no_res(), None, FAST)
        assert a != b

    def test_key_stable_for_equivalent_inputs(self):
        a = cell_cache_key(repro.smoke(seed=7), repro.no_res(), None, FAST)
        b = cell_cache_key(repro.smoke(seed=7), repro.no_res(), None, FAST)
        assert a == b

    def test_key_includes_engine_salt(self, smoke_scenario):
        key = cell_cache_key(smoke_scenario, repro.no_res(), None, FAST)
        assert key is not None and len(key) == 64
        assert repro.__version__ in engine_salt()

    def test_observer_keyword_raises(self, smoke_scenario):
        with pytest.raises(ConfigurationError, match="Instrumentation\\(observers="):
            SimulationConfig(strict=False, observer=EventLog())

    def test_observer_instrumentation_blocks_caching(self, smoke_scenario):
        config = SimulationConfig(
            strict=False, instrumentation=Instrumentation(observers=(EventLog(),))
        )
        assert cell_cache_key(smoke_scenario, repro.no_res(), None, config) is None

    def test_instrumentation_blocks_caching(self, smoke_scenario):
        config = SimulationConfig(
            strict=False, instrumentation=Instrumentation(metrics=MetricsRegistry())
        )
        assert cell_cache_key(smoke_scenario, repro.no_res(), None, config) is None

    def test_disabled_instrumentation_keeps_key(self, smoke_scenario):
        explicit = SimulationConfig(strict=False, instrumentation=Instrumentation())
        assert cell_cache_key(
            smoke_scenario, repro.no_res(), None, explicit
        ) == cell_cache_key(
            smoke_scenario, repro.no_res(), None, SimulationConfig(strict=False)
        )


class TestResultCacheIO:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_absent_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda blob: b"",  # empty file
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: b"junk" + blob,  # bad magic
            lambda blob: blob[:-3] + b"xyz",  # payload flipped -> checksum fails
        ],
    )
    def test_corrupt_entry_detected_and_evicted(self, tmp_path, mutation):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {"answer": 42})
        path = cache.path_for(key)
        path.write_bytes(mutation(path.read_bytes()))
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entry must be evicted from disk"
        assert cache.stats.evictions == 1 and cache.stats.misses == 1

    def test_checksum_valid_but_unpicklable_payload_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "aa" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = b"not a pickle at all"
        path.write_bytes(b"repro-cache\x00" + hashlib.sha256(payload).digest() + payload)
        assert cache.get(key) is None
        assert not path.exists()

    def test_stale_salt_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "bb" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "salt": "repro/0.0.0/schema0", "value": 1}
        )
        path.write_bytes(b"repro-cache\x00" + hashlib.sha256(payload).digest() + payload)
        assert cache.get(key) is None
        assert not path.exists()


class _DictStateRecord:
    """Pickles as a ``JobRecord`` carrying dict state, as records did
    before they became slotted (cache schema 1)."""

    def __init__(self, state):
        self.state = state

    def __reduce_ex__(self, protocol):
        return object.__new__, (JobRecord,), self.state


class _SlottedRecord:
    """Pickles as a slotted-dataclass ``JobRecord`` did (cache schema 2):
    ``JobRecord.__new__(JobRecord)`` with no arguments, then the field
    values as state.  ``__class__`` answers ``JobRecord`` so the pickler
    writes exactly those opcodes."""

    def __init__(self, values):
        self.values = values

    @property
    def __class__(self):
        return JobRecord

    def __reduce_ex__(self, protocol):
        return copyreg.__newobj__, (JobRecord,), self.values


def _write_entry(cache, key, payload):
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"repro-cache\x00" + hashlib.sha256(payload).digest() + payload)
    return path


class TestSchemaBump:
    def test_schema1_dict_state_record_is_a_miss(self, tmp_path):
        state = {
            "job_id": 7, "priority": 0, "submit_minute": 0.0,
            "finish_minute": 5.0, "runtime_minutes": 5.0, "cores": 1,
            "memory_gb": 1.0, "wait_time": 0.0, "suspend_time": 0.0,
            "wasted_restart_time": 0.0, "suspension_count": 0,
            "restart_count": 0, "migration_count": 0,
            "waiting_move_count": 0, "pools_visited": ("p0",),
            "rejected": False, "task_id": None, "user": "u",
        }
        payload = pickle.dumps(
            {
                "schema": 1,
                "salt": f"repro/{repro.__version__}/schema1",
                "value": [_DictStateRecord(state)],
            }
        )
        # A schema-1 record pickle no longer loads at all: a named
        # tuple refuses ``object.__new__``.
        with pytest.raises(TypeError):
            pickle.loads(payload)

        assert CACHE_SCHEMA_VERSION == 4
        cache = ResultCache(tmp_path)
        key = "cc" + "0" * 62
        path = _write_entry(cache, key, payload)
        assert cache.peek(key) is None
        assert cache.get(key) is None
        assert not path.exists(), "schema-1 entry must be evicted"
        assert cache.stats.evictions == 1 and cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_schema2_slotted_record_is_a_miss(self, tmp_path):
        values = [
            7, 0, 0.0, 5.0, 5.0, 1, 1.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, ("p0",),
            False, None, "u", 0, 0, False,
        ]
        payload = pickle.dumps(
            {
                "schema": 2,
                "salt": f"repro/{repro.__version__}/schema2",
                "value": [_SlottedRecord(values)],
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with pytest.raises(TypeError):
            pickle.loads(payload)

        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = _write_entry(cache, key, payload)
        assert cache.peek(key) is None
        assert cache.get(key) is None
        assert not path.exists(), "schema-2 entry must be evicted"
        assert cache.stats.evictions == 1 and cache.stats.misses == 1
        assert cache.stats.hits == 0


class TestRunnerCaching:
    def test_second_grid_run_is_all_hits(self, smoke_scenario, tmp_path):
        cold = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        cells_cold = cold.run([smoke_scenario], [repro.no_res, repro.res_sus_util])
        assert cold.cache_stats.misses == 2 and cold.cache_stats.stores == 2

        warm = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        cells_warm = warm.run([smoke_scenario], [repro.no_res, repro.res_sus_util])
        assert warm.cache_stats.hits == 2 and warm.cache_stats.misses == 0
        assert all(c.from_cache for c in cells_warm)
        assert [c.summary for c in cells_cold] == [c.summary for c in cells_warm]

    @pytest.mark.slow
    def test_fleet_run_reports_the_same_stats_as_serial(
        self, smoke_scenario, tmp_path
    ):
        # Fleet workers store the entries in their own processes; the
        # runner's stats still count them, as a serial run does.
        fleet = ExperimentRunner(config=FAST, n_workers=2, cache_dir=tmp_path)
        fleet.run([smoke_scenario], [repro.no_res, repro.res_sus_util])
        assert fleet.cache_stats.as_line() == (
            "cache: 0 hit(s), 2 miss(es), 2 store(s), 0 eviction(s)"
        )

    def test_corrupt_grid_entry_recomputed(self, smoke_scenario, tmp_path):
        cold = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        cells_cold = cold.run([smoke_scenario], [repro.no_res])
        entries = list(tmp_path.rglob("*.bin"))
        assert len(entries) == 1
        entries[0].write_bytes(b"garbage" * 100)

        warm = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        cells_warm = warm.run([smoke_scenario], [repro.no_res])
        assert warm.cache_stats.evictions == 1
        assert warm.cache_stats.hits == 0 and warm.cache_stats.stores == 1
        assert not cells_warm[0].from_cache
        assert cells_warm[0].summary == cells_cold[0].summary

        # and the recomputed entry is served on the next run
        third = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        cells_third = third.run([smoke_scenario], [repro.no_res])
        assert third.cache_stats.hits == 1
        assert cells_third[0].summary == cells_cold[0].summary

    def test_keep_results_upgrade_recomputes(self, smoke_scenario, tmp_path):
        summary_only = ExperimentRunner(config=FAST, cache_dir=tmp_path)
        summary_only.run([smoke_scenario], [repro.no_res])

        wants_results = ExperimentRunner(
            config=FAST, cache_dir=tmp_path, keep_results=True
        )
        cells = wants_results.run([smoke_scenario], [repro.no_res])
        assert cells[0].result is not None, "summary-only entry cannot satisfy keep_results"
        assert wants_results.cache_stats.misses == 1

        # ... but afterwards the full-result entry serves both kinds
        again = ExperimentRunner(config=FAST, cache_dir=tmp_path, keep_results=True)
        cells_again = again.run([smoke_scenario], [repro.no_res])
        assert again.cache_stats.hits == 1
        assert cells_again[0].result is not None

        # With a config that records samples: the summary-only run skips
        # them, so its entry must be recomputed for keep_results and come
        # back with the samples a fresh sampled run produces.
        sampled = SimulationConfig(strict=False)
        sampled_dir = tmp_path / "sampled"
        ExperimentRunner(config=sampled, cache_dir=sampled_dir).run(
            [smoke_scenario], [repro.no_res]
        )
        upgraded = ExperimentRunner(
            config=sampled, cache_dir=sampled_dir, keep_results=True
        )
        result = upgraded.run([smoke_scenario], [repro.no_res])[0].result
        assert upgraded.cache_stats.misses == 1
        fresh = ExperimentRunner(config=sampled, keep_results=True).run(
            [smoke_scenario], [repro.no_res]
        )[0].result
        assert result.samples and result.samples == fresh.samples
        assert result.records == fresh.records

    def test_parallel_run_populates_and_uses_cache(self, smoke_scenario, tmp_path):
        cold = ExperimentRunner(config=FAST, n_workers=2, cache_dir=tmp_path)
        cells_cold = cold.run(
            [smoke_scenario], [repro.no_res, repro.res_sus_util, repro.res_sus_rand]
        )
        warm = ExperimentRunner(config=FAST, n_workers=2, cache_dir=tmp_path)
        cells_warm = warm.run(
            [smoke_scenario], [repro.no_res, repro.res_sus_util, repro.res_sus_rand]
        )
        assert warm.cache_stats.hits == 3
        assert [c.summary for c in cells_cold] == [c.summary for c in cells_warm]


class TestOpenCache:
    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert open_cache() is None

    def test_env_directory_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = open_cache()
        assert cache is not None and cache.root == tmp_path

    def test_no_cache_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert open_cache() is None

    def test_use_cache_false_wins(self, tmp_path):
        assert open_cache(tmp_path, use_cache=False) is None

    def test_use_cache_true_needs_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(CacheError):
            open_cache(use_cache=True)
