"""Pluggable execution backends behind one protocol.

A :class:`Backend` answers exactly one question: *given a grid
manifest and the shared cache directory, make every cell's result
appear in the cache*.  How — in-process pool, local worker processes,
remote hosts — is the backend's business; the coordinator
(:mod:`.coordinator`) only ever polls the cache for published results,
so every backend gets streaming aggregation, provenance and telemetry
for free.

* :class:`LocalPoolBackend` — delegate to the battle-tested
  :func:`~repro.experiments.parallel.run_grid_parallel` process pool.
  No leases: single coordinating process, nothing to coordinate.
* :class:`SubprocessWorkerBackend` — spawn N independent
  ``python -m repro.fabric.worker`` processes that coordinate purely
  through the lease protocol.  This is the single-host version of the
  multi-host fabric: the workers share nothing but the cache
  directory, so the same binary scales to any transport that can
  mount one.

Every spawned worker's stderr is captured to a per-worker log file
under ``<cache>/manifests/``; when a worker dies, the last
:data:`STDERR_TAIL_LINES` lines are surfaced in the coordinator's
failure message (and in the supervisor's restart log), so chaos kills
and real crashes alike are diagnosable from the coordinating process.

:func:`backend_from_spec` parses the CLI's ``--backend`` strings:
``local``, ``local:4``, ``subprocess:2``, ``supervised:1-4``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import List, Optional, Protocol, Sequence

from ..errors import ReproError
from ..experiments.cache import ResultCache
from ..experiments.parallel import CellTask, run_grid_parallel
from .lease import DEFAULT_TTL_SECONDS, LeaseStore
from .worker import run_worker, write_manifest

__all__ = [
    "Backend",
    "BackendError",
    "LocalPoolBackend",
    "STDERR_TAIL_LINES",
    "SubprocessWorkerBackend",
    "backend_from_spec",
    "new_run_id",
    "stderr_tail",
]

#: How many trailing stderr lines of a dead worker are surfaced.
STDERR_TAIL_LINES = 20


def stderr_tail(path, limit: int = STDERR_TAIL_LINES) -> str:
    """The last ``limit`` lines of a worker's captured stderr log.

    Returns ``""`` when the log is missing or empty — a dead worker
    that never wrote is reported as silent, not as an error about the
    error report.
    """
    if path is None:
        return ""
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    lines = text.splitlines()
    return "\n".join(lines[-limit:])


class BackendError(ReproError):
    """A backend could not execute (or even start) its workers."""


class Backend(Protocol):
    """The execution-backend protocol.

    ``run(tasks, cache_dir, run_id)`` must return only after every
    task with a ``cache_key`` has its result published in the cache
    (or raise :class:`BackendError`).  ``name`` labels telemetry
    gauges and bench records.
    """

    name: str

    def run(
        self,
        tasks: Sequence[CellTask],
        cache_dir: Path,
        run_id: str,
        lease_ttl: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        ...


class LocalPoolBackend:
    """In-process pool execution (the pre-fabric fast path).

    A thin adapter over :func:`run_grid_parallel`: one coordinating
    process, a :class:`~concurrent.futures.ProcessPoolExecutor`, no
    leases.  Publication happens through the same cache writes, so
    the coordinator cannot tell this backend from a distributed one.
    """

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ReproError(f"local backend needs n_workers >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.name = f"local:{n_workers}"

    def run(
        self,
        tasks: Sequence[CellTask],
        cache_dir: Path,
        run_id: str,
        lease_ttl: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        cache = ResultCache(cache_dir)
        run_grid_parallel(list(tasks), n_workers=self.n_workers, cache=cache)


class SubprocessWorkerBackend:
    """N independent worker processes coordinating via the cache.

    Workers are full OS processes started with the coordinator's
    interpreter and an inherited-but-extended ``PYTHONPATH`` (so the
    exact ``repro`` under test is imported, editable installs
    included).  They receive the *whole* manifest and race for cells
    through the lease protocol — there is no work assignment step, so
    a dead worker costs only its held cell after the TTL.

    If every worker dies (OOM killer, interpreter bug), the backend
    falls back to computing the unpublished remainder in-process so
    the grid still completes; the failure is reported on stderr.
    """

    def __init__(
        self, n_workers: int = 2, poll_interval: float = 0.2
    ) -> None:
        if n_workers < 1:
            raise ReproError(
                f"subprocess backend needs n_workers >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self.poll_interval = poll_interval
        self.name = f"subprocess:{n_workers}"

    def _worker_env(self) -> dict:
        """The spawned worker's environment: ours + the live repro path."""
        import repro

        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else pkg_root + os.pathsep + existing
        )
        return env

    def worker_stderr_path(self, cache_dir: Path, worker_id: str) -> Path:
        """Where one worker's captured stderr log lives."""
        return Path(cache_dir) / "manifests" / f"{worker_id}.stderr.log"

    def spawn_worker(
        self,
        manifest: Path,
        cache_dir: Path,
        run_id: str,
        lease_ttl: float,
        worker_id: str,
    ) -> subprocess.Popen:
        """Spawn one worker process, stderr captured to its log file.

        The returned ``Popen`` carries a ``stderr_path`` attribute so
        whoever reaps the process (the backend's ``_await`` or the
        fleet supervisor) can surface the tail of its last words.
        """
        cache_dir = Path(cache_dir)
        cmd = [
            sys.executable,
            "-m",
            "repro.fabric._worker_main",
            "--manifest",
            str(manifest),
            "--cache-dir",
            str(cache_dir),
            "--worker-id",
            worker_id,
            "--run-id",
            run_id,
            "--ttl",
            str(lease_ttl),
            "--poll",
            str(self.poll_interval),
            "--stats-file",
            str(cache_dir / "manifests" / f"{worker_id}.stats.json"),
        ]
        stderr_path = self.worker_stderr_path(cache_dir, worker_id)
        stderr_path.parent.mkdir(parents=True, exist_ok=True)
        with open(stderr_path, "wb") as stderr_log:
            proc = subprocess.Popen(
                cmd, env=self._worker_env(), stderr=stderr_log
            )
        proc.stderr_path = stderr_path
        proc.worker_id = worker_id
        return proc

    def run(
        self,
        tasks: Sequence[CellTask],
        cache_dir: Path,
        run_id: str,
        lease_ttl: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        cache_dir = Path(cache_dir)
        manifest = write_manifest(
            tasks, cache_dir / "manifests" / f"{run_id}.manifest"
        )
        procs: List[subprocess.Popen] = []
        try:
            for i in range(self.n_workers):
                procs.append(
                    self.spawn_worker(
                        manifest, cache_dir, run_id, lease_ttl,
                        worker_id=f"{run_id}-w{i}",
                    )
                )
            self._await(procs, tasks, cache_dir, run_id, lease_ttl)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def _await(
        self,
        procs: List[subprocess.Popen],
        tasks: Sequence[CellTask],
        cache_dir: Path,
        run_id: str,
        lease_ttl: float,
    ) -> None:
        """Wait for the fleet; recover in-process if it dies entirely."""
        cache = ResultCache(cache_dir)
        keys = [t.cache_key for t in tasks if t.cache_key]
        while True:
            alive = [p for p in procs if p.poll() is None]
            unpublished = [k for k in keys if cache.peek(k) is None]
            if not unpublished:
                for proc in procs:
                    proc.wait()
                return
            if not alive:
                crashed = [p for p in procs if p.returncode != 0]
                if crashed:
                    print(
                        f"[fabric] all {len(procs)} workers exited "
                        f"({len(crashed)} nonzero); computing "
                        f"{len(unpublished)} remaining cell(s) in-process",
                        file=sys.stderr,
                    )
                    for proc in crashed:
                        tail = stderr_tail(
                            getattr(proc, "stderr_path", None)
                        )
                        label = (
                            f"[fabric] worker exit {proc.returncode}"
                            f" (pid {proc.pid})"
                        )
                        if tail:
                            print(
                                f"{label}, last stderr lines:\n{tail}",
                                file=sys.stderr,
                            )
                        else:
                            print(
                                f"{label}, no stderr output captured",
                                file=sys.stderr,
                            )
                    leases = LeaseStore(
                        cache_dir,
                        run_id=run_id,
                        worker_id=f"{run_id}-recovery",
                        ttl_seconds=lease_ttl,
                    )
                    todo = [t for t in tasks if t.cache_key in set(unpublished)]
                    run_worker(todo, cache, leases)
                # Cells still unpublished after a clean fleet exit
                # failed deterministically in every worker that tried;
                # the coordinator's serial pass owns the diagnosis.
                return
            time.sleep(self.poll_interval)


def backend_from_spec(spec: str) -> Backend:
    """Parse a CLI ``--backend`` spec into a backend instance.

    ``local`` / ``local:N`` → :class:`LocalPoolBackend`;
    ``subprocess:N`` (``subprocess`` alone defaults to 2) →
    :class:`SubprocessWorkerBackend`; ``supervised:MIN-MAX`` (or
    ``supervised:N``, defaults 1-4) → the self-healing
    :class:`~repro.fabric.supervisor.SupervisedWorkerBackend`.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "local":
            return LocalPoolBackend(int(arg) if arg else 1)
        if kind == "subprocess":
            return SubprocessWorkerBackend(int(arg) if arg else 2)
        if kind == "supervised":
            from .supervisor import SupervisedWorkerBackend

            if not arg:
                return SupervisedWorkerBackend()
            low, sep, high = arg.partition("-")
            if sep:
                return SupervisedWorkerBackend(
                    min_workers=int(low), max_workers=int(high)
                )
            return SupervisedWorkerBackend(
                min_workers=1, max_workers=int(low)
            )
    except ValueError:
        raise ReproError(f"bad worker count in backend spec: {spec!r}") from None
    raise ReproError(
        f"unknown backend {spec!r} (expected local[:N], subprocess[:N] "
        "or supervised[:MIN-MAX])"
    )


def new_run_id() -> str:
    """A short unique id naming one coordinated grid run."""
    return uuid.uuid4().hex[:12]
