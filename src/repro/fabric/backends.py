"""Pluggable execution backends behind one protocol.

A :class:`Backend` answers exactly one question: *given a grid
manifest and the shared cache directory, make every cell's result
appear in the cache*.  How — local worker processes, remote hosts — is
the backend's business; the coordinator
(:mod:`.coordinator`) only ever reads published results from the
cache, so every backend gets streaming aggregation, provenance and
telemetry for free.

* :class:`SubprocessWorkerBackend` — start N independent workers
  (:func:`repro.fabric.worker.main`) that coordinate purely through
  the lease protocol.  This is the single-host version of the
  multi-host fabric: the workers share nothing but the cache
  directory, so the same binary scales to any transport that can
  mount one.  Workers are forked from this process's preloaded
  zygote (:mod:`.zygote`) wherever ``os.fork`` exists, and cold
  ``python -m repro.fabric._worker_main`` processes elsewhere.
* :class:`~repro.fabric.supervisor.SupervisedWorkerBackend` — the same
  fleet kept healthy by a supervisor; ``local:N`` is this fleet with
  up to N workers.

The backends wait on events, not poll ticks: a worker's exit is
reported by the zygote (or, for a ``Popen`` handle, by a waiter
thread; :func:`notify_on_exit`), and every exit wakes the surviving
workers through their wake pipes (:func:`wake_workers`), so a worker
waiting on the last cells moves on at once.  Workers without a wake
pipe keep polling.

Every spawned worker's stderr is captured to a per-worker log file
under ``<cache>/manifests/``; when a worker dies, the last
:data:`STDERR_TAIL_LINES` lines are surfaced in the coordinator's
failure message (and in the supervisor's restart log), so chaos kills
and real crashes alike are diagnosable from the coordinating process.

:func:`backend_from_spec` parses the CLI's ``--backend`` strings:
``local``, ``local:4``, ``subprocess:2``, ``supervised:1-4``.  Plain
``local`` (``local:1``) means no backend at all: the coordinator runs
the grid serially in-process.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import uuid
from pathlib import Path
from typing import Callable, List, Optional, Protocol, Sequence

from ..errors import ReproError
from ..experiments.cache import ResultCache
from ..experiments.parallel import CellTask
from .lease import DEFAULT_TTL_SECONDS
from .worker import write_manifest
from .zygote import fork_worker

__all__ = [
    "Backend",
    "BackendError",
    "STDERR_TAIL_LINES",
    "SubprocessWorkerBackend",
    "backend_from_spec",
    "new_run_id",
    "notify_on_exit",
    "stderr_tail",
    "wake_workers",
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


class SubprocessWorkerBackend:
    """N independent worker processes coordinating via the cache.

    Workers are full OS processes, forked from the zygote or started
    cold, with the coordinator's environment and an extended
    ``PYTHONPATH`` (so the exact ``repro`` under test is imported,
    editable installs included).  They receive the *whole* manifest and race for cells
    through the lease protocol — there is no work assignment step, so
    a dead worker costs only its held cell after the TTL.

    If every worker dies (OOM killer, interpreter bug), the backend
    reports the deaths on stderr and returns; the coordinator computes
    the unpublished remainder in-process, so the grid still completes.
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
        """The spawned worker's environment: ours, plus our import path.

        A worker unpickles the manifest, so it must import every module
        the tasks reference: the live ``repro`` first, then each
        ``sys.path`` entry of this process outside the interpreter's
        own prefixes (a fresh interpreter finds the stdlib and
        site-packages by itself).
        """
        import repro

        prefixes = tuple(
            os.path.join(p, "")
            for p in {sys.prefix, sys.base_prefix, sys.exec_prefix}
        )
        paths = [str(Path(repro.__file__).resolve().parent.parent)]
        for entry in sys.path:
            if (
                entry
                and entry not in paths
                and not os.path.join(entry, "").startswith(prefixes)
                and os.path.isdir(entry)
            ):
                paths.append(entry)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        if existing:
            paths.append(existing)
        env["PYTHONPATH"] = os.pathsep.join(paths)
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
    ):
        """Start one worker process, stderr captured to its log file.

        Where ``os.fork`` exists the worker is forked from this
        process's preloaded zygote (:mod:`.zygote`) and reads a wake
        pipe (see :func:`wake_workers`); elsewhere it is a cold
        ``Popen`` of ``python -m repro.fabric._worker_main`` that
        polls.  The returned handle carries ``stderr_path`` and
        ``worker_id`` attributes so whoever reaps the process (the
        backend's ``_await`` or the fleet supervisor) can surface the
        tail of its last words.
        """
        cache_dir = Path(cache_dir)
        argv = [
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
        if hasattr(os, "fork"):
            proc = fork_worker(argv, self._worker_env(), stderr_path)
        else:
            cmd = [sys.executable, "-m", "repro.fabric._worker_main", *argv]
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
            self._await(procs, tasks, cache_dir)
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
    ) -> None:
        """Wait until every worker has exited, then report crashes.

        Workers exit once the grid is published, so their exits are
        the only events worth waiting for.  Each exit wakes the
        survivors: the last cells are now either published or held by
        a dead worker whose lease a survivor must take over.
        """
        exits: queue.SimpleQueue = queue.SimpleQueue()
        for proc in procs:
            notify_on_exit(proc, exits.put)
        for _ in procs:
            exits.get()
            wake_workers(procs)
        crashed = [p for p in procs if p.returncode != 0]
        if not crashed:
            return
        cache = ResultCache(cache_dir)
        unpublished = [
            t.cache_key
            for t in tasks
            if t.cache_key and not cache.contains(t.cache_key)
        ]
        if not unpublished:
            return
        print(
            f"[fabric] all {len(procs)} workers exited "
            f"({len(crashed)} nonzero) with "
            f"{len(unpublished)} cell(s) unpublished",
            file=sys.stderr,
        )
        for proc in crashed:
            tail = stderr_tail(getattr(proc, "stderr_path", None))
            print(
                f"[fabric] worker exit {proc.returncode} "
                f"(pid {proc.pid}), last stderr lines:\n"
                f"{tail or '(none captured)'}",
                file=sys.stderr,
            )
        # The coordinator computes what is left serially: it
        # reproduces deterministic errors with full context.


def notify_on_exit(handle, callback: Callable[[object], None]) -> None:
    """Call ``callback(handle)`` once the worker process has exited.

    A zygote-forked handle reports its own exit; any other handle with
    a ``wait()`` (the ``Popen`` of a cold or overridden
    ``spawn_worker``) gets a daemon waiter thread.  Handles with
    neither are never reported.  ``callback`` must not block.
    """
    add = getattr(handle, "add_exit_callback", None)
    if add is not None:
        add(callback)
    elif hasattr(handle, "wait"):

        def waiter() -> None:
            handle.wait()
            callback(handle)

        threading.Thread(target=waiter, name="fabric-waiter", daemon=True).start()


def wake_workers(handles) -> None:
    """Cut short the poll wait of every live worker with a wake pipe.

    Zygote-forked workers wait on their wake pipe while peers hold the
    last cells (``run_worker(wake_fd=...)``); other handles poll.
    """
    for handle in handles:
        wake = getattr(handle, "wake", None)
        if wake is not None and handle.poll() is None:
            wake()


def backend_from_spec(spec: str) -> Optional[Backend]:
    """Parse a CLI ``--backend`` spec into a backend instance.

    ``local`` / ``local:1`` → ``None`` (no fleet: the coordinator runs
    the grid serially in-process); ``local:N`` →
    :class:`~repro.fabric.supervisor.SupervisedWorkerBackend` with 1 to
    N workers, named ``local:N``; ``subprocess:N`` (``subprocess``
    alone defaults to 2) → :class:`SubprocessWorkerBackend`;
    ``supervised:MIN-MAX`` (or ``supervised:N``, defaults 1-4) → the
    self-healing :class:`~repro.fabric.supervisor.SupervisedWorkerBackend`.
    """
    from .supervisor import SupervisedWorkerBackend

    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "local":
            n_workers = int(arg) if arg else 1
            if n_workers < 1:
                raise ReproError(
                    f"local backend needs n_workers >= 1, got {n_workers}"
                )
            if n_workers == 1:
                return None
            backend = SupervisedWorkerBackend(
                min_workers=1, max_workers=n_workers
            )
            backend.name = f"local:{n_workers}"
            return backend
        if kind == "subprocess":
            return SubprocessWorkerBackend(int(arg) if arg else 2)
        if kind == "supervised":
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
