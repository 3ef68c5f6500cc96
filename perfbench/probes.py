"""Timing probes wrapped around the program's public layer calls.

Every probe replaces a public method with a :class:`~perfbench.spans.SpanRecorder`
wrapper for the duration of a traced run and puts the original back
afterwards, so untraced runs execute the program exactly as shipped.
:class:`TracedSubprocessBackend` does the same for the fabric workers:
it launches ``perfbench/fabric_worker.py`` instead of the stock worker
module, which installs :func:`fabric_worker_probes` in each worker process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.fabric import LeaseStore, SubprocessWorkerBackend
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import CalendarEventQueue
from repro.simulator.machine import Machine
from repro.simulator.online import OnlineResults
from repro.simulator.pool import PhysicalPool, SubmitOutcome
from repro.simulator.queues import PriorityWaitQueue
from repro.simulator.virtual_pool import VirtualPoolManager

from .spans import SpanRecorder

#: The traced fabric worker script, launched by path.
WORKER_SCRIPT = Path(__file__).resolve().parent / "fabric_worker.py"

_MISSING = object()
_STARTED = (SubmitOutcome.STARTED, SubmitOutcome.PREEMPTED)


class Patcher:
    """Swaps methods for span wrappers; :meth:`close` restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record every call of ``owner.attr`` as span ``name``."""
        own = owner.__dict__.get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, self.recorder.wrap(name, original, count))
        self._undo.append((owner, attr, own))

    def close(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _started(_args, result) -> int:
    return 1 if result.outcome in _STARTED else 0


def _found(_args, result) -> int:
    return 0 if result is None else 1


def _moves(_args, decision) -> int:
    return 1 if decision.moves else 0


def _length(_args, result) -> int:
    return len(result)


def _won(_args, result) -> int:
    return 1 if result else 0


def _put_bytes(args, _result) -> int:
    cache, key = args[0], args[1]
    try:
        return os.path.getsize(cache.path_for(key))
    except OSError:
        return 0


def engine_probes(recorder: SpanRecorder, policy, scheduler) -> Patcher:
    """Wrap every engine layer, plus the policy/selector/scheduler objects.

    The policy, its selector and the initial scheduler are the objects
    the benchmark passes into the simulation; their classes are patched
    so the wrappers see exactly the calls the engine makes on them.
    """
    patch = Patcher(recorder)
    patch.wrap(SimulationEngine, "__init__", "engine.build")
    patch.wrap(SimulationEngine, "run", "engine.run")
    for attr, name in (
        ("push", "events.push"),
        ("pop", "events.pop"),
        ("push_many_unsorted", "events.push_many"),
        ("peek_time", "events.peek"),
        ("advance_to", "events.advance"),
    ):
        patch.wrap(CalendarEventQueue, attr, name)
    patch.wrap(VirtualPoolManager, "submit", "vpm.submit")
    patch.wrap(type(scheduler), "order", "scheduler.order")
    patch.wrap(PhysicalPool, "submit", "pool.submit", _started)
    patch.wrap(PhysicalPool, "fill_machine", "pool.fill_machine", _length)
    for attr in ("detach_running", "detach_suspended", "remove_waiting"):
        patch.wrap(PhysicalPool, attr, "pool.detach")
    patch.wrap(Machine, "preemption_victims", "machine.preemption_victims")
    for attr in ("push", "pop", "remove"):
        patch.wrap(PriorityWaitQueue, attr, f"waitq.{attr}")
    patch.wrap(PriorityWaitQueue, "best_schedulable", "waitq.best_schedulable", _found)
    for attr in ("on_suspend", "on_wait_timeout"):
        patch.wrap(type(policy), attr, f"policy.{attr}", _moves)
    selector = getattr(policy, "selector", None)
    if selector is not None:
        patch.wrap(type(selector), "select", "selector.select")
    patch.wrap(OnlineResults, "add_record", "sink.add_record")
    return patch


def fabric_worker_probes(recorder: SpanRecorder) -> Patcher:
    """Wrap the lease store, the result cache and the engine in a worker."""
    patch = Patcher(recorder)
    patch.wrap(LeaseStore, "claim", "lease.claim", _won)
    for attr in ("heartbeat", "release_done", "read"):
        patch.wrap(LeaseStore, attr, f"lease.{attr}")
    patch.wrap(ResultCache, "put", "cache.put", _put_bytes)
    patch.wrap(ResultCache, "peek", "cache.peek")
    patch.wrap(ResultCache, "get", "cache.get")
    patch.wrap(SimulationEngine, "__init__", "engine.build")
    patch.wrap(SimulationEngine, "run", "engine.run")
    return patch


def coordinator_probes(recorder: SpanRecorder) -> Patcher:
    """Wrap the result-cache reads the coordinator and backend poll with."""
    patch = Patcher(recorder)
    patch.wrap(ResultCache, "peek", "cache.peek")
    patch.wrap(ResultCache, "get", "cache.get")
    return patch


class TracedSubprocessBackend(SubprocessWorkerBackend):
    """The subprocess fleet, with each worker running the traced script.

    Records each worker's spawn wall time (for boot time) and the
    window of :meth:`run` (the coordinator's backend phase).
    """

    def __init__(self, n_workers: int = 2, poll_interval: float = 0.2) -> None:
        super().__init__(n_workers, poll_interval=poll_interval)
        self.spawned_at: Dict[str, float] = {}
        self.run_window: Optional[Tuple[float, float]] = None

    def spawn_worker(
        self,
        manifest: Path,
        cache_dir: Path,
        run_id: str,
        lease_ttl: float,
        worker_id: str,
    ) -> subprocess.Popen:
        cache_dir = Path(cache_dir)
        manifests = cache_dir / "manifests"
        cmd = [
            sys.executable,
            str(WORKER_SCRIPT),
            "--manifest", str(manifest),
            "--cache-dir", str(cache_dir),
            "--worker-id", worker_id,
            "--run-id", run_id,
            "--ttl", str(lease_ttl),
            "--poll", str(self.poll_interval),
            "--stats-file", str(manifests / f"{worker_id}.stats.json"),
            "--spans-file", str(manifests / f"{worker_id}.spans.json"),
        ]
        stderr_path = self.worker_stderr_path(cache_dir, worker_id)
        stderr_path.parent.mkdir(parents=True, exist_ok=True)
        self.spawned_at[worker_id] = time.time()
        with open(stderr_path, "wb") as stderr_log:
            proc = subprocess.Popen(cmd, env=self._worker_env(), stderr=stderr_log)
        proc.stderr_path = stderr_path
        proc.worker_id = worker_id
        return proc

    def run(self, tasks, cache_dir, run_id, **kwargs) -> None:
        start = time.perf_counter()
        try:
            super().run(tasks, cache_dir, run_id, **kwargs)
        finally:
            self.run_window = (start, time.perf_counter())
