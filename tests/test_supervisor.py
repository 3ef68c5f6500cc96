"""Tests for the self-healing fleet supervisor.

The state machine under test (see ``repro/fabric/supervisor.py``):

* a crashed worker is restarted with exponential backoff and
  deterministic jitter;
* a slot that crash-loops past its restart budget is quarantined;
* a healthy-then-dead worker does not accumulate a crash streak;
* the fleet grows toward the remaining work and shrinks by attrition,
  bounded by ``min_workers``/``max_workers`` and a hard spawn budget;
* clean exits with work remaining trigger one re-scan, then retire;
* a drain request terminates the fleet gracefully;
* a reaped worker's cells are released at once, and a cell whose
  holders died ``restart_budget`` times is given up on.

Everything here drives the supervisor with fake clocks and fake
process handles; the chaos harness (``tests/test_chaos.py``) runs the
same machine against real SIGKILLed subprocesses.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.fabric import build_grid, run_grid_fabric
from repro.fabric.lease import CLAIMED, QUARANTINED, LeaseStore
from repro.fabric.supervisor import (
    FleetLeases,
    FleetSupervisor,
    SupervisedWorkerBackend,
    SupervisorConfig,
    deterministic_jitter,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeHandle:
    """A process handle whose death is scripted.

    ``lifetime`` is how long after spawn ``poll()`` starts reporting
    ``returncode`` (None = immortal until terminated).
    """

    def __init__(
        self, clock, lifetime=None, returncode=-9, pid=4242, worker_id=None
    ):
        self.worker_id = worker_id
        self._clock = clock
        self._born = clock()
        self._lifetime = lifetime
        self._returncode = returncode
        self.pid = pid
        self.terminated = False
        self.killed = False

    def poll(self):
        if self.terminated or self.killed:
            return -15
        if self._lifetime is not None and (
            self._clock() - self._born >= self._lifetime
        ):
            return self._returncode
        return None

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


def make_supervisor(clock, spawn, config=None, **kwargs):
    defaults = dict(initial_workers=1, min_workers=1, max_workers=1)
    defaults.update(kwargs)
    return FleetSupervisor(
        spawn,
        config=config or SupervisorConfig(
            backoff_base_seconds=1.0,
            backoff_factor=2.0,
            backoff_max_seconds=60.0,
            jitter_fraction=0.0,
            restart_budget=3,
            healthy_uptime_seconds=100.0,
            rescan_budget=1,
            # Exactly one slot's crash-loop: quarantined/retired
            # capacity is normally *replaced* by _resize while work
            # remains, and an unbounded budget would let these tests
            # watch replacement slots crash-loop forever.
            spawn_budget_factor=4,
            drain_timeout_seconds=5.0,
        ),
        name="test-fleet",
        clock=clock,
        sleep=clock.sleep,
        on_event=lambda kind, msg: None,
        **defaults,
    )


class TestJitter:
    def test_stable_and_bounded(self):
        values = {deterministic_jitter(f"run|{i}|0", 0.25) for i in range(64)}
        assert all(-0.25 <= v <= 0.25 for v in values)
        assert len(values) > 32  # actually spreads
        assert deterministic_jitter("run|3|1", 0.25) == deterministic_jitter(
            "run|3|1", 0.25
        )

    def test_zero_fraction_is_zero(self):
        assert deterministic_jitter("anything", 0.0) == 0.0


class TestCrashLoop:
    def test_restart_budget_then_quarantine(self):
        clock = FakeClock()
        spawn_times = []

        def spawn(slot, incarnation):
            spawn_times.append((incarnation, clock()))
            return FakeHandle(clock, lifetime=0.1)  # dies almost at once

        sup = make_supervisor(clock, spawn)
        stats = sup.run(lambda: 5, poll_interval=0.1)

        # incarnations 0..3 spawned: the original plus restart_budget
        # restarts; the 4th crash (streak 4 > budget 3) quarantines.
        assert [inc for inc, _ in spawn_times] == [0, 1, 2, 3]
        assert stats.restarts == 3
        assert stats.quarantined == 1
        assert stats.first_failure_at is not None
        assert stats.completed_at is None  # grid never finished

    def test_backoff_gaps_grow_exponentially(self):
        clock = FakeClock()
        spawn_times = []

        def spawn(slot, incarnation):
            spawn_times.append(clock())
            return FakeHandle(clock, lifetime=0.0)

        sup = make_supervisor(clock, spawn)
        sup.run(lambda: 5, poll_interval=0.01)

        gaps = [b - a for a, b in zip(spawn_times, spawn_times[1:])]
        # Scheduled delays are 1, 2, 4 (base 1.0, factor 2, no jitter);
        # observed gaps are quantised up by at most one poll interval.
        assert len(gaps) == 3
        for gap, scheduled in zip(gaps, (1.0, 2.0, 4.0)):
            assert scheduled <= gap <= scheduled + 0.05

    def test_jitter_skews_backoff_deterministically(self):
        def run_once():
            clock = FakeClock()
            spawn_times = []

            def spawn(slot, incarnation):
                spawn_times.append(clock())
                return FakeHandle(clock, lifetime=0.0)

            config = SupervisorConfig(
                backoff_base_seconds=1.0, backoff_factor=2.0,
                backoff_max_seconds=60.0, jitter_fraction=0.25,
                restart_budget=2, healthy_uptime_seconds=100.0,
            )
            sup = make_supervisor(clock, spawn, config=config)
            sup.run(lambda: 5, poll_interval=0.01)
            return spawn_times

        first, second = run_once(), run_once()
        assert first == second  # replays exactly
        gaps = [b - a for a, b in zip(first, first[1:])]
        assert any(abs(gap - round(gap)) > 0.01 for gap in gaps)  # skewed

    def test_crash_loop_is_quarantined_after_grid_completes(self):
        clock = FakeClock()
        spawns = []

        def spawn(slot, incarnation):
            spawns.append(incarnation)
            # The first incarnation works a while; every restart dies
            # at boot.
            return FakeHandle(clock, lifetime=1.0 if incarnation == 0 else 0.1)

        # The rest of the fleet finishes the grid right after the first
        # death, long before the slot's restart budget is spent.
        sup = make_supervisor(clock, spawn)
        stats = sup.run(lambda: 0 if clock() >= 1.5 else 4, poll_interval=0.1)

        assert spawns == [0, 1, 2, 3]
        assert stats.restarts == 3
        assert stats.quarantined == 1
        assert stats.completed_at == pytest.approx(1.5, abs=0.1)

    def test_clean_restart_after_grid_completes_ends_the_streak(self):
        clock = FakeClock()
        handles = []

        def spawn(slot, incarnation):
            # The first incarnation crashes; the restart boots, finds
            # the grid complete and exits cleanly.
            if incarnation == 0:
                handle = FakeHandle(clock, lifetime=1.0)
            else:
                handle = FakeHandle(clock, lifetime=0.1, returncode=0)
            handles.append(handle)
            return handle

        sup = make_supervisor(clock, spawn)
        stats = sup.run(lambda: 0 if clock() >= 1.5 else 4, poll_interval=0.1)

        assert len(handles) == 2
        assert stats.restarts == 1
        assert stats.quarantined == 0
        assert stats.shrunk == 0
        assert not handles[1].terminated  # exited on its own

    def test_healthy_uptime_resets_streak(self):
        clock = FakeClock()
        incarnations = []

        def spawn(slot, incarnation):
            incarnations.append(incarnation)
            return FakeHandle(clock, lifetime=200.0)  # healthy, then dies

        config = SupervisorConfig(
            backoff_base_seconds=0.1, backoff_factor=2.0,
            backoff_max_seconds=1.0, jitter_fraction=0.0,
            restart_budget=2, healthy_uptime_seconds=100.0,
            spawn_budget_factor=5,
        )
        sup = make_supervisor(clock, spawn, config=config)
        stats = sup.run(lambda: 5, poll_interval=1.0)

        # Every death follows 200s of honest work, so the streak never
        # exceeds 1 and nobody is quarantined; the run ends only when
        # the hard spawn budget (5 x max_workers=1) is exhausted.
        assert stats.quarantined == 0
        assert stats.spawned == 5
        assert len(incarnations) == 5


class TestElasticity:
    def test_grows_toward_remaining_work(self):
        clock = FakeClock()
        handles = []

        def spawn(slot, incarnation):
            handle = FakeHandle(clock)  # immortal
            handles.append((slot, handle))
            return handle

        remaining = iter([10, 10, 0])
        sup = make_supervisor(
            clock, spawn, initial_workers=1, min_workers=1, max_workers=4
        )
        stats = sup.run(lambda: next(remaining), poll_interval=0.1)

        assert stats.grown == 3  # 1 initial + 3 grown = 4 = max_workers
        assert sorted(slot for slot, _ in handles) == [0, 1, 2, 3]
        assert stats.completed_at is not None

    def test_attrition_shrink_when_fleet_covers_work(self):
        clock = FakeClock()
        handles = {}

        def spawn(slot, incarnation):
            # Slot 1's first incarnation dies quickly; slot 0 lives.
            lifetime = 0.5 if slot == 1 else None
            handle = FakeHandle(clock, lifetime=lifetime)
            handles[(slot, incarnation)] = handle
            return handle

        remaining = iter([1, 1, 1, 1, 0])
        sup = make_supervisor(
            clock, spawn, initial_workers=2, min_workers=1, max_workers=2
        )
        stats = sup.run(lambda: next(remaining), poll_interval=0.3)

        # One cell left and a surviving worker to cover it: the dead
        # slot is retired by attrition, not restarted.
        assert stats.shrunk == 1
        assert stats.restarts == 0
        assert (1, 1) not in handles

    def test_explicit_grow_and_shrink_respect_bounds(self):
        clock = FakeClock()

        def spawn(slot, incarnation):
            return FakeHandle(clock)

        sup = make_supervisor(
            clock, spawn, initial_workers=2, min_workers=1, max_workers=3
        )
        # Prime two slots without entering the run loop.
        sup._resize(2, clock())
        assert sup.grow(5) == 1  # clamped at max_workers=3
        assert sup.shrink(5) == 2  # clamped at min_workers=1
        assert sup._active_count() == 1

    def test_spawn_budget_bounds_every_recovery_loop(self):
        clock = FakeClock()
        spawned = []

        def spawn(slot, incarnation):
            spawned.append((slot, incarnation))
            return FakeHandle(clock, lifetime=0.0)

        config = SupervisorConfig(
            backoff_base_seconds=0.01, backoff_factor=1.0,
            backoff_max_seconds=0.01, jitter_fraction=0.0,
            restart_budget=10_000, healthy_uptime_seconds=1e9,
            spawn_budget_factor=3,
        )
        sup = make_supervisor(
            clock, spawn, config=config, initial_workers=2,
            min_workers=1, max_workers=2,
        )
        stats = sup.run(lambda: 5, poll_interval=0.01)
        assert stats.spawned == 6  # 3 x max_workers, then exhausted
        assert len(spawned) == 6


class TestCleanExits:
    def test_clean_exit_with_work_remaining_rescans_once(self):
        clock = FakeClock()
        spawns = []

        def spawn(slot, incarnation):
            spawns.append(incarnation)
            return FakeHandle(clock, lifetime=0.5, returncode=0)

        config = SupervisorConfig(
            backoff_base_seconds=1.0, backoff_factor=2.0,
            backoff_max_seconds=60.0, jitter_fraction=0.0,
            restart_budget=3, healthy_uptime_seconds=100.0,
            rescan_budget=1, spawn_budget_factor=2,
        )
        sup = make_supervisor(clock, spawn, config=config)
        stats = sup.run(lambda: 5, poll_interval=0.3)

        # First clean exit -> one re-scan incarnation (counted as a
        # restart, but never as a failure); its clean exit retires the
        # slot (rescan budget 1) and the fleet is empty.
        assert spawns == [0, 1]
        assert stats.shrunk == 1
        assert stats.restarts == 1
        assert stats.first_failure_at is None
        assert stats.quarantined == 0


    def test_clean_retirements_are_not_replaced(self):
        clock = FakeClock()
        spawns = []

        def spawn(slot, incarnation):
            # Every worker fails the last cell deterministically and
            # exits clean: more workers would only fail it again.
            spawns.append((slot, incarnation))
            return FakeHandle(clock, lifetime=0.5, returncode=0)

        config = SupervisorConfig(
            backoff_base_seconds=1.0, backoff_factor=2.0,
            backoff_max_seconds=60.0, jitter_fraction=0.0,
            restart_budget=3, healthy_uptime_seconds=100.0,
            rescan_budget=1, spawn_budget_factor=6,
        )
        sup = make_supervisor(
            clock, spawn, config=config, initial_workers=2,
            min_workers=1, max_workers=2,
        )
        stats = sup.run(lambda: 5, poll_interval=0.3)

        # Slot 0 re-scans once (slot 1, dying with that re-scan pending,
        # retires at once); then nothing replaces the retired slots.
        assert sorted(spawns) == [(0, 0), (0, 1), (1, 0)]
        assert stats.grown == 0
        assert stats.shrunk == 2


class TestCompletionAndDrain:
    def test_completion_drains_fleet_and_stamps_recovery(self):
        clock = FakeClock()
        handles = []

        def spawn(slot, incarnation):
            handle = FakeHandle(clock)
            handles.append(handle)
            return handle

        remaining = iter([3, 2, 0])
        sup = make_supervisor(clock, spawn)
        stats = sup.run(lambda: next(remaining), poll_interval=0.1)

        assert stats.completed_at is not None
        assert stats.recovery_seconds() == 0.0  # nothing ever died
        assert handles[0].terminated  # drained, not abandoned

    def test_recovery_window_spans_failure_to_completion(self):
        clock = FakeClock()

        def spawn(slot, incarnation):
            # First incarnation dies at t=1; the restart is immortal.
            lifetime = 1.0 if incarnation == 0 else None
            return FakeHandle(clock, lifetime=lifetime)

        calls = {"n": 0}

        def status():
            calls["n"] += 1
            return 0 if clock() >= 20.0 else 4

        config = SupervisorConfig(
            backoff_base_seconds=1.0, backoff_factor=2.0,
            backoff_max_seconds=60.0, jitter_fraction=0.0,
            restart_budget=3, healthy_uptime_seconds=0.5,
        )
        sup = make_supervisor(clock, spawn, config=config)
        stats = sup.run(status, poll_interval=0.5)
        assert stats.restarts == 1
        assert stats.recovery_seconds() == pytest.approx(19.0, abs=1.0)

    def test_drain_request_terminates_and_reports(self):
        clock = FakeClock()
        handles = []

        def spawn(slot, incarnation):
            handle = FakeHandle(clock)
            handles.append(handle)
            return handle

        sup = make_supervisor(clock, spawn)

        calls = {"n": 0}

        def status():
            calls["n"] += 1
            if calls["n"] == 3:
                sup.request_drain()  # the SIGTERM hook fires mid-run
            return 7

        stats = sup.run(status, poll_interval=0.1)
        assert stats.drained
        assert handles[0].terminated


class ReportingHandle(FakeHandle):
    """A FakeHandle that reports its scripted death, like a forked worker."""

    def __init__(self, clock, **kwargs):
        super().__init__(clock, **kwargs)
        self.exit_callbacks = []

    def add_exit_callback(self, callback):
        self.exit_callbacks.append(callback)

    @property
    def dies_at(self):
        return None if self._lifetime is None else self._born + self._lifetime


class ExitClock(FakeClock):
    """Fake time whose sleep, like ``Event.wait``, ends at the first
    exit reported to a registered callback."""

    def __init__(self):
        super().__init__()
        self.handles = []

    def sleep(self, seconds):
        deadline = self.now + seconds
        due = [
            h for h in self.handles
            if h.exit_callbacks and h.dies_at is not None
            and self.now < h.dies_at <= deadline
        ]
        if not due:
            self.now = deadline
            return
        handle = min(due, key=lambda h: h.dies_at)
        self.now = handle.dies_at
        callbacks, handle.exit_callbacks = handle.exit_callbacks, []
        for callback in callbacks:
            callback(handle)


class TestExitWakeup:
    def test_worker_exit_wakes_the_run_loop_before_its_poll_interval(self):
        clock = ExitClock()
        spawned_at = []

        def spawn(slot, incarnation):
            spawned_at.append(clock())
            handle = ReportingHandle(
                clock, lifetime=0.25 if incarnation == 0 else None
            )
            clock.handles.append(handle)
            return handle

        sup = make_supervisor(clock, spawn)
        stats = sup.run(lambda: 0 if clock() >= 5.0 else 3, poll_interval=1.0)

        # Reaped at the exit, not at the 1.0s poll tick; the restart
        # then waits out its 1.0s backoff and no more.
        assert stats.first_failure_at == pytest.approx(0.25)
        assert spawned_at == [0.0, pytest.approx(1.25)]
        assert stats.restarts == 1


class FakeLeases:
    """A lease journal in memory: which worker holds which cell."""

    def __init__(self):
        self.holder = {}
        self.expired = []
        self.quarantined = []

    def held_by(self, worker_id):
        return sorted(k for k, w in self.holder.items() if w == worker_id)

    def drop_settled(self, worker_id):
        return 0  # every cell held here is unpublished

    def expire(self, key, holder):
        assert self.holder[key] == holder
        self.expired.append(key)
        del self.holder[key]

    def quarantine(self, key):
        self.quarantined.append(key)
        del self.holder[key]


class TestDeadHolders:
    def test_reaping_frees_exactly_the_dead_workers_leases(self, tmp_path):
        clock = FakeClock()
        cache = ResultCache(tmp_path)
        keys = ["k-dead-1", "k-dead-2", "k-live", "k-dead-published"]

        def store(worker):
            return LeaseStore(tmp_path, run_id="run", worker_id=worker)

        dead, live = store("run-w0r0"), store("run-w1r0")
        assert dead.claim("k-dead-1") and dead.claim("k-dead-2")
        assert live.claim("k-live")
        # Died between publish and release: a settled orphan, removed
        # at reap instead of waiting out a TTL in the settled sweep.
        assert dead.claim("k-dead-published")
        cache.put("k-dead-published", {"summary": "s"})

        def spawn(slot, incarnation):
            lifetime = 1.0 if slot == 0 and incarnation == 0 else None
            return FakeHandle(
                clock, lifetime=lifetime, worker_id=f"run-w{slot}r{incarnation}"
            )

        remaining = iter([4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0])
        sup = make_supervisor(
            clock, spawn, initial_workers=2, min_workers=1, max_workers=2,
            leases=FleetLeases(cache, keys, "run"),
        )
        stats = sup.run(lambda: next(remaining), poll_interval=0.1)

        assert stats.restarts == 1
        assert stats.abandoned == {}
        assert stats.settled_released == 1
        peer = store("run-w1r0")
        for key in ("k-dead-1", "k-dead-2"):
            # stale at once: the next claim takes it over, journalled
            lease = peer.read(key)
            assert lease.status == CLAIMED and lease.heartbeat_at == 0.0
            assert peer.claim(key)
            assert peer.read(key).takeovers == 1
        live_lease = peer.read("k-live")
        assert live_lease.worker_id == "run-w1r0"
        assert live_lease.heartbeat_at > 0.0
        assert peer.read("k-dead-published") is None

    def test_cell_quarantined_after_budget_of_healthy_holder_deaths(self):
        clock = FakeClock()
        leases = FakeLeases()
        spawns = []

        def spawn(slot, incarnation):
            worker_id = f"w{slot}r{incarnation}"
            spawns.append(worker_id)
            # Every incarnation works far longer than
            # healthy_uptime_seconds (so its slot's crash streak keeps
            # resetting to 1), then dies holding the poisoned cell.
            if not leases.quarantined:
                leases.holder["poison"] = worker_id
            return FakeHandle(clock, lifetime=200.0, worker_id=worker_id)

        sup = make_supervisor(clock, spawn, leases=leases)
        # The other cells are done; the poisoned one stops counting as
        # remaining once it is given up on.
        stats = sup.run(lambda: 0 if sup.stats.abandoned else 1, poll_interval=1.0)

        budget = sup.config.restart_budget
        assert stats.abandoned == {"poison": budget}
        assert leases.quarantined == ["poison"]
        assert leases.expired == ["poison"] * (budget - 1)
        assert spawns[:budget] == [f"w0r{i}" for i in range(budget)]
        assert stats.quarantined == 0  # the slot itself never crash-looped

    def test_death_is_charged_to_the_running_cell_not_its_batch(self):
        clock = FakeClock()
        leases = FakeLeases()

        def spawn(slot, incarnation):
            worker_id = f"w{slot}r{incarnation}"
            if incarnation == 0:
                # A batched claim: the worker runs "a" first and dies
                # there; "b" and "c" were queued behind it.
                for key in ("a", "b", "c"):
                    leases.holder[key] = worker_id
                return FakeHandle(clock, lifetime=1.0, worker_id=worker_id)
            return FakeHandle(clock, worker_id=worker_id)

        remaining = iter([3] * 8 + [0])
        sup = make_supervisor(clock, spawn, leases=leases)
        stats = sup.run(lambda: next(remaining), poll_interval=1.0)

        assert stats.cell_deaths == {"a": 1}
        assert stats.abandoned == {}
        assert sorted(leases.expired) == ["a", "b", "c"]
        assert leases.holder == {}

    def test_fleet_leases_count_an_identical_cell_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        holder = LeaseStore(tmp_path, run_id="run", worker_id="run-w0r0")
        assert holder.claim("k-same")
        leases = FleetLeases(cache, ["k-same", "k-other", "k-same"], "run")
        assert leases.held_by("run-w0r0") == ["k-same"]

    def test_spawn_budget_does_not_cut_off_crashing_cells(self):
        # Five cells that kill every holder need 15 deaths; the spawn
        # budget alone (4 x 2 workers) allows 8.  Deaths charged to a
        # cell earn their replacement back, so every crasher still
        # reaches its verdict and none is left for the coordinator to
        # run in-process.
        clock = FakeClock()
        leases = FakeLeases()
        cells = [f"crash-{i}" for i in range(5)]

        def spawn(slot, incarnation):
            worker_id = f"w{slot}r{incarnation}"
            for key in cells:
                if key not in leases.quarantined and key not in leases.holder:
                    leases.holder[key] = worker_id
                    break
            return FakeHandle(clock, lifetime=1.0, worker_id=worker_id)

        sup = make_supervisor(
            clock, spawn, initial_workers=2, min_workers=1, max_workers=2,
            leases=leases,
        )
        stats = sup.run(
            lambda: len(cells) - len(sup.stats.abandoned), poll_interval=0.5
        )

        budget = sup.config.restart_budget
        assert stats.abandoned == {key: budget for key in cells}
        assert stats.cell_deaths == stats.abandoned
        assert sorted(leases.quarantined) == cells
        assert stats.spawned > sup.config.spawn_budget_factor * sup.max_workers


@pytest.mark.slow
class TestSupervisedBackendIntegration:
    def test_happy_fleet_matches_serial(self, tmp_path):
        from repro.experiments.cache import ResultCache, stable_hash
        from repro.experiments.parallel import run_grid_parallel

        tasks = build_grid("smoke")
        serial = run_grid_parallel(tasks, n_workers=1)
        backend = SupervisedWorkerBackend(
            min_workers=1, max_workers=2, poll_interval=0.05
        )
        report = run_grid_fabric(
            build_grid("smoke"), backend, ResultCache(tmp_path),
            poll_interval=0.05,
        )
        assert report.ok
        assert [stable_hash(o.summary) for o in report.completed] == [
            stable_hash(o.summary) for o in serial.completed
        ]
        stats = backend.last_supervisor_stats
        assert stats is not None
        assert stats.quarantined == 0
        assert not stats.drained
        assert backend.last_swept_leases == 0

    def test_post_publish_kill_releases_settled_claim_at_reap(
        self, tmp_path, monkeypatch
    ):
        import time

        from repro.chaos.invariants import audit_run, grid_digests
        from repro.chaos.plan import CHAOS_PLAN_ENV, ChaosAction, ChaosPlan
        from repro.experiments.parallel import run_grid_parallel

        tasks = build_grid("smoke", seed=5)[:4]
        plan = ChaosPlan.dump(
            [
                ChaosAction(worker=w, stage="post-publish", action="kill", nth=0)
                for w in ("w0r0", "w1r0")
            ],
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(CHAOS_PLAN_ENV, str(plan))
        cache = ResultCache(tmp_path / "cache")
        backend = SupervisedWorkerBackend(min_workers=1, max_workers=2)

        start = time.monotonic()
        report = run_grid_fabric(tasks, backend, cache)  # default lease TTL
        elapsed = time.monotonic() - start

        # The settled sweep used to wait out the 60s TTL for each orphan.
        assert elapsed < 15.0
        assert backend.last_supervisor_stats.settled_released >= 1
        audit = audit_run(
            report, tasks, cache,
            serial_digests=grid_digests(run_grid_parallel(tasks, n_workers=1)),
            swept_leases=backend.last_swept_leases,
        )
        assert audit.violations == ()
        assert audit.counter("claimed_leases") == 0
