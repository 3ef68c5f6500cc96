"""Tests for the distributed experiment fabric.

The load-bearing guarantees:

* a fabric run is bit-identical to a serial run — same per-cell
  summaries, same derived seeds — whatever the backend or worker count;
* two workers racing one grid compute each cell exactly once (lease
  contention), and a worker that dies mid-cell is taken over after the
  TTL (stale-lease takeover);
* an interrupted run resumes through the shared result cache;
* provenance is attributed correctly: cache_hit on pre-scan,
  computed for own-run work, claimed_elsewhere for cells another run
  published while we ran;
* static sharding partitions a grid disjointly and completely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

import repro
from repro.errors import ConfigurationError, ReproError
from repro.experiments.cache import ResultCache, stable_hash
from repro.experiments.parallel import (
    PROVENANCE_CACHE_HIT,
    PROVENANCE_CLAIMED_ELSEWHERE,
    PROVENANCE_COMPUTED,
    make_cell_task,
    run_grid_parallel,
)
from repro.fabric import (
    SubprocessWorkerBackend,
    backend_from_spec,
    build_grid,
    run_grid_fabric,
    run_worker,
    shard_tasks,
)
from repro.fabric.lease import LeaseStore
from repro.fabric import worker as worker_mod
from repro.simulator.config import SimulationConfig

FAST = SimulationConfig(strict=False, record_samples=False)


def small_grid(smoke_scenario, n_policies=2):
    factories = [repro.no_res, repro.res_sus_util, repro.res_sus_wait_util]
    return [
        make_cell_task(
            index=i,
            scenario=smoke_scenario,
            policy=factories[i](),
            scheduler=None,
            config=FAST,
        )
        for i in range(n_policies)
    ]


def digests(report):
    return [stable_hash(o.summary) for o in report.completed]


class TestShardTasks:
    def test_shards_partition_the_grid(self, smoke_scenario):
        tasks = build_grid("smoke")
        shards = [shard_tasks(tasks, k, 3) for k in range(3)]
        seen = sorted(t.index for shard in shards for t in shard)
        assert seen == [t.index for t in tasks]
        assert all(
            t.index % 3 == k for k, shard in enumerate(shards) for t in shard
        )

    def test_bad_shard_arguments(self, smoke_scenario):
        tasks = small_grid(smoke_scenario)
        with pytest.raises(ConfigurationError):
            shard_tasks(tasks, 0, 0)
        with pytest.raises(ConfigurationError):
            shard_tasks(tasks, 3, 3)
        with pytest.raises(ConfigurationError):
            shard_tasks(tasks, -1, 3)

    def test_sharded_union_matches_serial(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario, n_policies=3)
        serial = run_grid_parallel(tasks, n_workers=1)
        shard_outcomes = {}
        for k in range(2):
            cache = ResultCache(tmp_path / f"shard{k}")
            report = run_grid_parallel(
                shard_tasks(tasks, k, 2), n_workers=1, cache=cache
            )
            for o in report.completed:
                shard_outcomes[o.index] = o
        assert len(shard_outcomes) == len(tasks)
        for o in serial.completed:
            assert stable_hash(shard_outcomes[o.index].summary) == stable_hash(
                o.summary
            )


class TestBackendSpecs:
    def test_local_specs(self):
        # plain local is no fleet at all: the grid runs serially in-process
        assert backend_from_spec("local") is None
        assert backend_from_spec("local:1") is None
        local4 = backend_from_spec("local:4")
        assert local4.n_workers == 4
        assert (local4.min_workers, local4.max_workers) == (1, 4)
        assert local4.name == "local:4"
        assert backend_from_spec("subprocess").n_workers == 2
        assert backend_from_spec("subprocess:8").n_workers == 8

    def test_ssh_spec_is_unknown(self):
        with pytest.raises(ReproError, match="unknown backend"):
            backend_from_spec("ssh:a")

    def test_bad_specs(self):
        with pytest.raises(ReproError):
            backend_from_spec("mesos:4")
        with pytest.raises(ReproError):
            backend_from_spec("local:banana")


class TestWorkerLoop:
    def test_single_worker_computes_everything(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario)
        cache = ResultCache(tmp_path)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w0")
        stats = run_worker(tasks, cache, leases)
        assert stats.computed == len(tasks)
        assert stats.published == len(tasks)
        assert stats.failed == 0
        assert all(cache.peek(t.cache_key) is not None for t in tasks)

    def test_quarantined_cell_is_skipped_by_its_run_only(
        self, smoke_scenario, tmp_path
    ):
        tasks = small_grid(smoke_scenario)
        cache = ResultCache(tmp_path)
        bad = tasks[0].cache_key
        LeaseStore(tmp_path, run_id="r1", worker_id="sup").quarantine(bad)

        # the run whose supervisor gave up leaves the cell unpublished
        # and still returns (it does not wait for the cell forever)
        stats = run_worker(
            tasks, cache, LeaseStore(tmp_path, run_id="r1", worker_id="w0")
        )
        assert stats.computed == len(tasks) - 1
        assert cache.peek(bad) is None

        # a later run clears the verdict and tries the cell afresh
        stats = run_worker(
            tasks, cache, LeaseStore(tmp_path, run_id="r2", worker_id="w0")
        )
        assert stats.computed == 1
        assert cache.peek(bad) is not None

    def test_two_workers_race_one_cell_exactly_one_computes(
        self, smoke_scenario, tmp_path
    ):
        tasks = small_grid(smoke_scenario, n_policies=1)
        assert len(tasks) == 1
        cache_a = ResultCache(tmp_path)
        cache_b = ResultCache(tmp_path)
        la = LeaseStore(tmp_path, run_id="r", worker_id="a", ttl_seconds=30)
        lb = LeaseStore(tmp_path, run_id="r", worker_id="b", ttl_seconds=30)
        results = {}
        barrier = threading.Barrier(2)

        def drive(name, cache, leases):
            barrier.wait()
            results[name] = run_worker(tasks, cache, leases)

        threads = [
            threading.Thread(target=drive, args=("a", cache_a, la)),
            threading.Thread(target=drive, args=("b", cache_b, lb)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        computed = results["a"].computed + results["b"].computed
        assert computed == 1
        # whoever lost still observed the published result
        assert results["a"].skipped + results["b"].skipped >= 1
        serial = run_grid_parallel(tasks, n_workers=1)
        entry = cache_a.peek(tasks[0].cache_key)
        assert stable_hash(entry["summary"]) == stable_hash(
            serial.completed[0].summary
        )

    def test_stale_lease_takeover_after_host_death(
        self, smoke_scenario, tmp_path
    ):
        tasks = small_grid(smoke_scenario, n_policies=1)
        key = tasks[0].cache_key
        # "host death": a worker claims the cell and never heartbeats
        dead = LeaseStore(tmp_path, run_id="r", worker_id="dead", ttl_seconds=0.05)
        assert dead.claim(key)
        time.sleep(0.1)
        cache = ResultCache(tmp_path)
        survivor = LeaseStore(
            tmp_path, run_id="r", worker_id="live", ttl_seconds=0.05
        )
        stats = run_worker(tasks, cache, survivor, poll_interval=0.01)
        assert stats.computed == 1
        assert stats.stolen == 1
        assert cache.peek(key) is not None

    def test_poisoned_cell_does_not_kill_worker(self, smoke_scenario, tmp_path, monkeypatch):
        tasks = small_grid(smoke_scenario, n_policies=2)
        bad_key = tasks[0].cache_key
        real = worker_mod._simulate_task

        def sim(task):
            if task.cache_key == bad_key:
                raise RuntimeError("poisoned")
            return real(task)

        monkeypatch.setattr(worker_mod, "_simulate_task", sim)
        cache = ResultCache(tmp_path)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        stats = run_worker(tasks, cache, leases, poll_interval=0.01)
        assert stats.failed == 1
        assert stats.computed == len(tasks) - 1
        assert cache.peek(bad_key) is None
        # the failed cell's lease was released for peers to retry
        assert leases.read(bad_key) is None

    def test_cell_floor_pads_wall_seconds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            worker_mod,
            "_simulate_task",
            lambda task: (task.index, {"stub": task.index}, None, 0.001),
        )
        tasks = [
            SimpleNamespace(index=i, cache_key=f"{i:02d}" + "0" * 62, keep_result=False)
            for i in range(3)
        ]
        slept = []
        cache = ResultCache(tmp_path)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        stats = run_worker(
            tasks, cache, leases, cell_floor=0.5, sleep=slept.append
        )
        assert stats.computed == 3
        assert all(
            cache.peek(t.cache_key)["wall_seconds"] == 0.5 for t in tasks
        )
        assert len(slept) == 3 and all(s > 0.4 for s in slept)

    def test_claim_batches_shrink_to_single_cells_at_the_tail(
        self, tmp_path, monkeypatch
    ):
        events = []
        monkeypatch.setattr(
            worker_mod,
            "_simulate_task",
            lambda task: events.append("compute")
            or (task.index, {"stub": task.index}, None, 0.001),
        )
        tasks = [
            SimpleNamespace(index=i, cache_key=f"{i:02d}" + "0" * 62, keep_result=False)
            for i in range(40)
        ]
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        claim = leases.claim

        def counted_claim(key):
            events.append("claim")
            return claim(key)

        monkeypatch.setattr(leases, "claim", counted_claim)
        stats = run_worker(tasks, ResultCache(tmp_path), leases)
        assert stats.computed == 40
        # A batch is a run of claims between computes.
        batches = []
        for previous, event in zip(["compute"] + events, events):
            if event == "claim":
                if previous == "claim":
                    batches[-1] += 1
                else:
                    batches.append(1)
        assert sum(batches) == 40
        left = 40
        for size in batches:
            assert size <= max(1, left // worker_mod.TAIL_SHARE)
            left -= size
        assert max(batches) > 1  # cheap cells are still batched
        assert batches[-worker_mod.TAIL_SHARE:] == [1] * worker_mod.TAIL_SHARE


class TestRunGridFabric:
    def test_local_backend_matches_serial(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario, n_policies=3)
        serial = run_grid_parallel(tasks, n_workers=1)
        fab = run_grid_fabric(
            tasks, backend_from_spec("local"), ResultCache(tmp_path)
        )
        assert digests(fab) == digests(serial)
        assert [o.seed for o in fab.completed] == [
            o.seed for o in serial.completed
        ]
        assert fab.provenance_counts() == {PROVENANCE_COMPUTED: 3}

    def test_warm_cache_rerun_hits_everything(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario)
        cache = ResultCache(tmp_path)
        run_grid_fabric(tasks, None, cache)
        rerun = run_grid_fabric(tasks, None, cache)
        assert rerun.provenance_counts() == {PROVENANCE_CACHE_HIT: len(tasks)}

    def test_checkpoint_resume_interop_for_interrupted_sharded_run(
        self, smoke_scenario, tmp_path
    ):
        # The result cache is the checkpoint: the "interrupted" run
        # completed only shard 0 before dying, the resumed run reuses
        # its cache directory.
        tasks = small_grid(smoke_scenario, n_policies=3)
        run_grid_fabric(shard_tasks(tasks, 0, 2), None, ResultCache(tmp_path))
        resumed = run_grid_fabric(tasks, None, ResultCache(tmp_path))
        counts = resumed.provenance_counts()
        assert counts[PROVENANCE_CACHE_HIT] == len(shard_tasks(tasks, 0, 2))
        assert counts[PROVENANCE_COMPUTED] == len(tasks) - counts[
            PROVENANCE_CACHE_HIT
        ]
        serial = run_grid_parallel(tasks, n_workers=1)
        assert digests(resumed) == digests(serial)

    def test_claimed_elsewhere_attribution(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario, n_policies=2)

        @dataclass
        class ForeignRunBackend:
            """Publishes every cell as if another run's worker did."""

            name: str = "foreign"

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                cache = ResultCache(cache_dir)
                leases = LeaseStore(
                    cache_dir, run_id="someone-else", worker_id="remote-w0"
                )
                run_worker(run_tasks, cache, leases)

        report = run_grid_fabric(
            tasks, ForeignRunBackend(), ResultCache(tmp_path), run_id="mine"
        )
        assert report.provenance_counts() == {
            PROVENANCE_CLAIMED_ELSEWHERE: len(tasks)
        }
        serial = run_grid_parallel(tasks, n_workers=1)
        assert digests(report) == digests(serial)

    def test_keep_going_surfaces_poisoned_cell_as_failure(
        self, smoke_scenario, tmp_path, monkeypatch
    ):
        tasks = small_grid(smoke_scenario, n_policies=2)
        bad_key = tasks[0].cache_key
        real = worker_mod._simulate_task

        def sim(task):
            if task.cache_key == bad_key:
                raise RuntimeError("deterministic boom")
            return real(task)

        # Poison both the worker path and the coordinator's serial
        # retry path so the cell fails everywhere.
        monkeypatch.setattr(worker_mod, "_simulate_task", sim)
        import repro.fabric.coordinator as coordinator_mod

        monkeypatch.setattr(coordinator_mod, "_simulate_task", sim)

        @dataclass
        class InProcessWorkerBackend:
            name: str = "inproc"

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                cache = ResultCache(cache_dir)
                leases = LeaseStore(
                    cache_dir, run_id=run_id, worker_id=f"{run_id}-w0"
                )
                run_worker(run_tasks, cache, leases, poll_interval=0.01)

        report = run_grid_fabric(
            tasks,
            InProcessWorkerBackend(),
            ResultCache(tmp_path),
            keep_going=True,
        )
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].message == "deterministic boom"
        assert len(report.completed) == len(tasks) - 1

    def test_cell_that_killed_a_worker_is_never_computed_in_process(
        self, smoke_scenario, tmp_path, monkeypatch
    ):
        from repro.fabric.supervisor import SupervisorStats

        tasks = small_grid(smoke_scenario, n_policies=3)
        killer, stranded = tasks[0].cache_key, tasks[1].cache_key
        import repro.fabric.coordinator as coordinator_mod

        real = coordinator_mod._simulate_task
        simulated = []

        def sim(task):
            simulated.append(task.cache_key)
            return real(task)

        monkeypatch.setattr(coordinator_mod, "_simulate_task", sim)

        @dataclass
        class ExhaustedFleet:
            """Publishes the last cell, then stops as a fleet that ran
            out of workers would: one cell killed a holder, one was
            never reached."""

            name: str = "exhausted"
            last_supervisor_stats: object = None

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                leases = LeaseStore(
                    cache_dir, run_id=run_id, worker_id=f"{run_id}-w0"
                )
                run_worker(run_tasks[2:], ResultCache(cache_dir), leases)
                self.last_supervisor_stats = SupervisorStats(
                    cell_deaths={killer: 1}
                )

        report = run_grid_fabric(
            tasks, ExhaustedFleet(), ResultCache(tmp_path), keep_going=True
        )
        assert [f.index for f in report.failures] == [0]
        failure = report.failures[0]
        assert failure.error_type == "WorkerDied" and failure.attempts == 1
        assert simulated == [stranded]
        assert {o.index for o in report.completed} == {1, 2}

    def test_unportable_cell_leaves_the_rest_on_the_fleet(
        self, smoke_scenario, tmp_path, monkeypatch
    ):
        import __main__

        from repro.core.policies import NoRescheduling

        class MainPolicy(NoRescheduling):
            name = "MainPolicy"

        # A worker's __main__ is the worker, so it could not load this.
        MainPolicy.__module__ = "__main__"
        MainPolicy.__qualname__ = "MainPolicy"
        monkeypatch.setattr(__main__, "MainPolicy", MainPolicy, raising=False)
        tasks = small_grid(smoke_scenario, n_policies=3)
        tasks[1] = make_cell_task(1, smoke_scenario, MainPolicy(), None, FAST)
        shipped = []

        @dataclass
        class InProcessWorkerBackend:
            name: str = "inproc"

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                shipped.extend(t.index for t in run_tasks)
                leases = LeaseStore(
                    cache_dir, run_id=run_id, worker_id=f"{run_id}-w0"
                )
                run_worker(run_tasks, ResultCache(cache_dir), leases)

        report = run_grid_fabric(tasks, InProcessWorkerBackend(), ResultCache(tmp_path))
        assert shipped == [0, 2]
        serial = run_grid_parallel(tasks, n_workers=1)
        assert [stable_hash(o.summary) for o in report.completed] == [
            stable_hash(o.summary) for o in serial.completed
        ]

    def test_lone_pending_cell_skips_the_fleet(self, smoke_scenario, tmp_path):
        tasks = small_grid(smoke_scenario, n_policies=2)
        cache = ResultCache(tmp_path)
        run_grid_fabric(tasks[:1], None, cache)

        class UnusedBackend:
            name = "unused"

            def run(self, *args, **kwargs):
                raise AssertionError("one pending cell started a fleet")

        report = run_grid_fabric(tasks, UnusedBackend(), cache)
        assert report.provenance_counts() == {
            PROVENANCE_COMPUTED: 1, PROVENANCE_CACHE_HIT: 1,
        }

    def test_fleet_published_cells_count_as_stores(
        self, smoke_scenario, tmp_path
    ):
        tasks = small_grid(smoke_scenario, n_policies=3)

        @dataclass
        class InProcessWorkerBackend:
            name: str = "inproc"

            def run(self, run_tasks, cache_dir, run_id, lease_ttl=60.0):
                leases = LeaseStore(
                    cache_dir, run_id=run_id, worker_id=f"{run_id}-w0"
                )
                run_worker(run_tasks, ResultCache(cache_dir), leases)

        cache = ResultCache(tmp_path)
        report = run_grid_fabric(tasks, InProcessWorkerBackend(), cache)
        assert report.provenance_counts() == {PROVENANCE_COMPUTED: len(tasks)}
        assert (cache.stats.misses, cache.stats.stores) == (
            len(tasks), len(tasks),
        )

    def test_registry_gauges_recorded(self, smoke_scenario, tmp_path):
        from repro.telemetry import MetricsRegistry, to_prometheus

        tasks = small_grid(smoke_scenario)
        registry = MetricsRegistry()
        # a serial run (no backend) reports under the local:1 label
        run_grid_fabric(tasks, None, ResultCache(tmp_path), registry=registry)
        text = to_prometheus(registry)
        assert 'repro_fabric_cells{backend="local:1",state="computed"}' in text


@pytest.mark.slow
class TestSubprocessBackend:
    def test_two_worker_fleet_matches_serial(self, smoke_scenario, tmp_path):
        tasks = build_grid("smoke", seed=2024)
        serial = run_grid_parallel(tasks, n_workers=1)
        report = run_grid_fabric(
            build_grid("smoke", seed=2024),
            SubprocessWorkerBackend(2, poll_interval=0.05),
            ResultCache(tmp_path),
            lease_ttl=20.0,
            poll_interval=0.05,
        )
        assert digests(report) == digests(serial)
        assert report.ok
        totals = dict(report.worker_totals)
        assert totals["computed"] == len(tasks)
        assert totals["failed"] == 0


class TestTwinCells:
    """Tasks sharing a cache key are computed once and reported per index."""

    @pytest.fixture
    def twins(self, smoke_scenario):
        tasks = small_grid(smoke_scenario, n_policies=2)
        twin = make_cell_task(2, smoke_scenario, repro.no_res(), None, FAST, keep_result=True)
        assert twin.cache_key == tasks[0].cache_key
        return tasks + [twin]

    @pytest.fixture
    def simulated(self, monkeypatch):
        """Grid indices the coordinator simulates in-process, in order."""
        import repro.fabric.coordinator as coordinator_mod

        real, indices = coordinator_mod._simulate_task, []

        def sim(task):
            indices.append(task.index)
            return real(task)

        monkeypatch.setattr(coordinator_mod, "_simulate_task", sim)
        return indices

    @staticmethod
    def assert_fanned_out(report):
        first, _, twin = report.outcomes
        assert [o.index for o in report.outcomes] == [0, 1, 2]
        assert first.summary == twin.summary and first.seed == twin.seed
        assert first.result is None and twin.result is not None

    def test_serial_grid_simulates_a_twin_pair_once(self, twins, simulated):
        seen = []
        report = run_grid_fabric(twins, None, progress=seen.append)
        assert simulated == [0, 1]
        assert sorted(o.index for o in seen) == [0, 1]
        self.assert_fanned_out(report)

    def test_fleet_leaves_no_twin_to_the_serial_pass(
        self, twins, simulated, tmp_path
    ):
        report = run_grid_parallel(twins, n_workers=2, cache=ResultCache(tmp_path))
        assert simulated == []
        self.assert_fanned_out(report)

    def test_failing_twin_pair_fails_at_each_index(
        self, twins, monkeypatch
    ):
        import repro.fabric.coordinator as coordinator_mod

        bad_key, real = twins[0].cache_key, coordinator_mod._simulate_task

        def sim(task):
            if task.cache_key == bad_key:
                raise RuntimeError("deterministic boom")
            return real(task)

        monkeypatch.setattr(coordinator_mod, "_simulate_task", sim)
        report = run_grid_fabric(twins, None, keep_going=True)
        assert [f.index for f in report.failures] == [0, 2]
        assert {f.message for f in report.failures} == {"deterministic boom"}
        assert [o is None for o in report.outcomes] == [True, False, True]
