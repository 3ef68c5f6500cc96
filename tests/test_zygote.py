"""Warm worker starts and event-driven waits.

* Workers forked from the zygote (``repro/fabric/zygote.py``) must
  behave like cold ``python -m`` workers: no re-run of the caller's
  ``__main__``, a ``sys.path`` extended at runtime honoured, per-spawn
  environment and stderr capture, and a dead zygote replaced.
* Exits wake the waiters: a worker in its tail wait, the backend and
  the coordinator end their waits on events, not at the next poll
  tick — and a worker whose wake pipe reaches EOF falls back to
  polling without spinning.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.chaos.plan import CHAOS_PLAN_ENV, ChaosAction, ChaosPlan
from repro.experiments.cache import ResultCache, stable_hash
from repro.experiments.parallel import make_cell_task, run_grid_parallel
from repro.fabric import SubprocessWorkerBackend, build_grid, run_grid_fabric
from repro.fabric import zygote as zygote_mod
from repro.fabric.lease import LeaseStore
from repro.fabric.supervisor import SupervisedWorkerBackend, SupervisorConfig
from repro.fabric.worker import CELL_FLOOR_ENV, run_worker, write_manifest
from repro.schedulers import RoundRobinScheduler
from repro.simulator.config import SimulationConfig

SRC = Path(repro.__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the zygote forks its workers"
)


def digests(report):
    return [stable_hash(o.summary) for o in report.outcomes]


def run_small_grid(tmp_path, name, tasks=None, backend=None):
    tasks = tasks if tasks is not None else build_grid("smoke", seed=11)[:2]
    return run_grid_fabric(
        tasks,
        backend or SubprocessWorkerBackend(2, poll_interval=0.05),
        ResultCache(tmp_path / name),
        poll_interval=0.05,
    )


def live_zygote(tmp_path):
    """Make sure this process has a running zygote; return it."""
    run_small_grid(tmp_path, "warm-up")
    zygote = zygote_mod._zygote
    assert zygote is not None and zygote.proc.poll() is None
    return zygote


@pytest.mark.slow
class TestZygoteSafety:
    def test_unguarded_script_runs_its_grid_exactly_once(self, tmp_path):
        marker = tmp_path / "runs.txt"
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import sys
                sys.path.insert(0, {str(SRC)!r})
                with open({str(marker)!r}, "a") as handle:
                    handle.write("ran\\n")
                from repro.cli import main
                main(["run-grid", "--preset", "smoke", "--seed", "11",
                      "--backend", "local:2", "--no-cache"])
                """
            ),
            encoding="utf-8",
        )
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert marker.read_text(encoding="utf-8") == "ran\n"
        digest = [line for line in out.splitlines() if "digest" in line]
        serial = run_grid_parallel(build_grid("smoke", seed=11), n_workers=1)
        expected = stable_hash([stable_hash(o.summary) for o in serial.outcomes])
        assert digest == [f"  digest {expected}"]

    def test_module_added_to_sys_path_after_start_unpickles(
        self, tmp_path, monkeypatch
    ):
        zygote = live_zygote(tmp_path)
        plugin_dir = tmp_path / "plugins"
        plugin_dir.mkdir()
        (plugin_dir / "late_policy_plugin.py").write_text(
            textwrap.dedent(
                """
                from repro.core.policies import NoRescheduling

                class LateNoRes(NoRescheduling):
                    name = "LateNoRes"
                """
            ),
            encoding="utf-8",
        )
        monkeypatch.syspath_prepend(str(plugin_dir))
        from late_policy_plugin import LateNoRes

        scenario = repro.smoke(seed=3)
        tasks = [
            make_cell_task(
                i, scenario, policy, RoundRobinScheduler(),
                SimulationConfig(seed=3, strict=False),
            )
            for i, policy in enumerate((LateNoRes(), repro.no_res()))
        ]
        report = run_small_grid(tmp_path, "late", tasks=tasks)

        assert zygote_mod._zygote is zygote  # the same, older zygote
        assert report.ok
        totals = dict(report.worker_totals)
        assert totals["computed"] == 2 and totals["failed"] == 0

    def test_killed_zygote_is_replaced_on_next_spawn(self, tmp_path):
        old = live_zygote(tmp_path)
        os.kill(old.proc.pid, signal.SIGKILL)
        old.proc.wait(timeout=10)

        report = run_small_grid(tmp_path, "after-kill")

        assert report.ok
        assert dict(report.worker_totals)["computed"] == 2
        new = zygote_mod._zygote
        assert new is not old and new.proc.poll() is None

    def test_worker_outliving_its_zygote_is_still_reported(
        self, tmp_path, monkeypatch
    ):
        live_zygote(tmp_path)
        monkeypatch.setenv(CELL_FLOOR_ENV, "1.0")
        cache = ResultCache(tmp_path / "orphan")
        tasks = build_grid("smoke", seed=11)[:1]
        manifest = write_manifest(tasks, cache.root / "manifests" / "o.manifest")
        handle = SubprocessWorkerBackend(1).spawn_worker(
            manifest, cache.root, "orphan", 60.0, "orphan-w0"
        )
        zygote = zygote_mod._zygote
        os.kill(zygote.proc.pid, signal.SIGKILL)
        zygote.proc.wait(timeout=10)

        # Its real exit status died with the zygote; the exit does not.
        assert handle.wait(timeout=60) == zygote_mod.ORPHAN_EXIT_CODE
        assert cache.peek(tasks[0].cache_key) is not None

    def test_per_spawn_chaos_plan_and_stderr_reach_the_death_report(
        self, tmp_path, monkeypatch, capsys
    ):
        live_zygote(tmp_path)  # started without any chaos plan
        plan = ChaosPlan.dump(
            [ChaosAction(worker="w0r0", stage="start", action="die")],
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(CHAOS_PLAN_ENV, str(plan))
        # Padded cells keep the grid open past w0's restart backoff;
        # unpadded smoke cells can all finish on w1 first, and w0 is
        # then retired rather than restarted.
        monkeypatch.setenv(CELL_FLOOR_ENV, "0.5")
        backend = SupervisedWorkerBackend(
            min_workers=1, max_workers=2, poll_interval=0.05,
            config=SupervisorConfig(backoff_base_seconds=0.05),
        )
        capsys.readouterr()

        report = run_small_grid(tmp_path, "chaos", backend=backend)

        err = capsys.readouterr().err
        assert report.ok
        assert backend.last_supervisor_stats.restarts >= 1
        assert "w0 died (exit -9" in err
        assert "-w0r0: die at start" in err  # the worker's last stderr words


    def test_concurrent_spawns_each_get_their_own_worker(self, tmp_path):
        live_zygote(tmp_path)
        cache = ResultCache(tmp_path / "stress")
        manifest = write_manifest([], cache.root / "manifests" / "empty.manifest")
        backend = SubprocessWorkerBackend(1)
        handles = {}

        def spawn(worker_id):
            handles[worker_id] = backend.spawn_worker(
                manifest, cache.root, "stress", 60.0, worker_id
            )

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=spawn, args=(f"stress-w{i}",))
                for i in range(8)  # more spawners than CPUs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len({h.pid for h in handles.values()}) == 8
        for worker_id, handle in handles.items():
            assert handle.wait(timeout=60) == 0
            log = handle.stderr_path.read_text(encoding="utf-8")
            assert f"worker {worker_id}: 0 computed" in log


@pytest.mark.slow
class TestExitWakeups:
    def test_grid_ends_on_exits_not_poll_ticks(self, tmp_path):
        live_zygote(tmp_path)
        tasks = build_grid("smoke", seed=11)[:3]
        start = time.monotonic()
        report = run_grid_fabric(
            tasks,
            SubprocessWorkerBackend(2, poll_interval=5.0),
            ResultCache(tmp_path / "slow-poll"),
            poll_interval=5.0,
        )
        elapsed = time.monotonic() - start
        assert report.ok
        assert digests(report) == digests(run_grid_parallel(tasks, n_workers=1))
        assert elapsed < 2.0, f"grid took {elapsed:.2f}s at a 5s poll interval"


class TestWorkerWakeFd:
    @staticmethod
    def held_by_peer(tmp_path, ttl):
        tasks = build_grid("smoke", seed=11)[:1]
        cache = ResultCache(tmp_path)
        peer = LeaseStore(tmp_path, run_id="run", worker_id="peer", ttl_seconds=ttl)
        assert peer.claim(tasks[0].cache_key)
        return tasks, cache, peer

    def test_wake_byte_ends_the_tail_wait(self, tmp_path):
        tasks, cache, peer = self.held_by_peer(tmp_path, ttl=60.0)
        key = tasks[0].cache_key
        read_end, write_end = os.pipe()

        def peer_publishes_then_exits():
            time.sleep(0.2)
            cache.put(key, {"summary": "from-peer"})
            peer.release_done(key)
            os.write(write_end, b"\0")

        thread = threading.Thread(target=peer_publishes_then_exits)
        leases = LeaseStore(tmp_path, run_id="run", worker_id="waiter")
        start = time.monotonic()
        try:
            thread.start()
            stats = run_worker(
                tasks, cache, leases, poll_interval=5.0, wake_fd=read_end
            )
        finally:
            thread.join(timeout=10)
            os.close(read_end)
            os.close(write_end)
        assert not thread.is_alive()
        assert time.monotonic() - start < 2.0
        assert (stats.computed, stats.skipped) == (0, 1)

    def test_eof_neither_spins_nor_stops_takeover(self, tmp_path):
        tasks, cache, _ = self.held_by_peer(tmp_path, ttl=0.3)
        read_end, write_end = os.pipe()
        os.close(write_end)  # the spawner is gone: EOF at once
        claims = []

        class CountingLeases(LeaseStore):
            def claim(self, key):
                claims.append(key)
                return super().claim(key)

        leases = CountingLeases(
            tmp_path, run_id="run", worker_id="survivor", ttl_seconds=0.3
        )
        try:
            stats = run_worker(
                tasks, cache, leases, poll_interval=0.05, wake_fd=read_end
            )
        finally:
            os.close(read_end)
        assert (stats.stolen, stats.computed) == (1, 1)
        # ~0.3s of 0.05s sleeps; a spinning loop would claim thousands
        # of times.
        assert len(claims) < 40
