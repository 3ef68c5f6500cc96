"""Warm worker starts: fork fleet workers from a preloaded zygote.

A cold worker is a fresh interpreter that imports ``repro`` before it
can claim its first cell, which is a large share of a short grid.  A
*zygote* pays that import once: each coordinator process starts one
``python -m repro.fabric._zygote`` on first use, the zygote imports
:mod:`repro.fabric.worker`, stays single-threaded, and forks one
worker per request.  A forked child is ready to claim in milliseconds.

The coordinator talks to its zygote over a ``socketpair``.  A request
carries the worker's argv, environment, working directory, stderr log
path and (as an ``SCM_RIGHTS`` descriptor) the read end of the
worker's wake pipe.  The zygote answers with the child's pid, reaps
its children and reports each ``pid → exit code`` back, so a SIGKILLed
worker reads as ``-9`` just as it does under ``Popen``.  The zygote
exits when its socket reaches EOF, i.e. when the coordinator goes.

Each forked child, before it runs :func:`repro.fabric.worker.main`:

* restores the default signal handlers;
* points fd 2 at its own stderr log;
* replaces ``os.environ`` with the request's environment, so variables
  set at spawn time (a chaos plan, a cell floor) still arrive;
* prepends the request's ``PYTHONPATH`` entries missing from
  ``sys.path``, so modules made importable after the zygote started
  still unpickle.

Nothing is re-imported by path: unlike ``multiprocessing``'s
forkserver, a child never re-runs the coordinator's ``__main__``, and
it honours a ``sys.path`` extended at runtime.

:class:`ForkedWorker` is the coordinator-side handle; it offers what
callers use of a ``Popen`` (``pid``, ``poll``, ``wait``,
``returncode``, ``terminate``, ``kill``) plus :meth:`ForkedWorker.wake`
and :meth:`ForkedWorker.add_exit_callback`.
"""

from __future__ import annotations

import atexit
import collections
import gc
import importlib
import json
import os
import select
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["ForkedWorker", "ZygoteLost", "fork_worker", "serve"]

_HEADER = struct.Struct("!I")


class ZygoteLost(OSError):
    """The zygote died before it could answer a spawn request."""


# -- framing: length-prefixed JSON, descriptors on the first byte ------------------


def _send(sock: socket.socket, message: dict, fds: Sequence[int] = ()) -> None:
    blob = json.dumps(message).encode("utf-8")
    data = _HEADER.pack(len(blob)) + blob
    sent = socket.send_fds(sock, [data], list(fds)) if fds else 0
    sock.sendall(data[sent:])


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise EOFError("zygote socket closed mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _recv(sock: socket.socket, maxfds: int = 0):
    """The next ``(message, fds)``; ``(None, [])`` at EOF."""
    if maxfds:
        head, fds, _, _ = socket.recv_fds(sock, _HEADER.size, maxfds)
    else:
        head, fds = sock.recv(_HEADER.size), []
    if not head:
        return None, []
    head += _recv_exact(sock, _HEADER.size - len(head))
    (size,) = _HEADER.unpack(head)
    return json.loads(_recv_exact(sock, size).decode("utf-8")), fds


# -- the zygote process ------------------------------------------------------------


def serve(fd: int) -> int:
    """The zygote's main loop on the inherited socket ``fd``."""
    # The preload every child inherits: the worker and the chaos-plan
    # module its main() imports.  Freezing it keeps the children's
    # garbage collector (and copy-on-write faults) off these objects.
    from ..chaos import plan  # noqa: F401
    from . import worker

    gc.freeze()
    sock = socket.socket(fileno=fd)
    # The zygote lives exactly as long as its coordinator: Ctrl-C is
    # for the coordinator and the workers, socket EOF ends the zygote.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    child_r, child_w = os.pipe()
    os.set_blocking(child_r, False)
    os.set_blocking(child_w, False)
    signal.set_wakeup_fd(child_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    selector.register(child_r, selectors.EVENT_READ)
    inherited = (sock, selector, child_r, child_w)
    try:
        _serve_loop(worker.main, sock, selector, child_r, inherited)
    except (OSError, EOFError):
        pass  # the coordinator went away mid-message
    return 0


def _serve_loop(main, sock, selector, child_r, inherited) -> None:
    while True:
        for key, _ in selector.select():
            if key.fileobj is sock:
                request, fds = _recv(sock, maxfds=1)
                if request is None:
                    return
                try:
                    pid = _fork(main, request, fds, inherited)
                except OSError as exc:
                    _send(sock, {"error": f"fork failed: {exc}"})
                else:
                    _send(sock, {"pid": pid})
                finally:
                    for received in fds:
                        os.close(received)
            else:
                try:
                    while os.read(child_r, 512):
                        pass
                except BlockingIOError:
                    pass
        # Reap after answering, so a pid's reply always precedes its
        # exit report.
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            _send(sock, {"exit": pid, "code": os.waitstatus_to_exitcode(status)})


def _fork(main: Callable, request: dict, fds: List[int], inherited) -> int:
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        sock, selector, child_r, child_w = inherited
        signal.set_wakeup_fd(-1)
        for sig in (signal.SIGCHLD, signal.SIGTERM):
            signal.signal(sig, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        selector.close()
        sock.close()
        os.close(child_r)
        os.close(child_w)
        log = os.open(
            request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        os.dup2(log, 2)
        os.close(log)
        if request["cwd"] is not None:
            os.chdir(request["cwd"])
        env = request["env"]
        os.environ.clear()
        os.environ.update(env)
        entries = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        sys.path[:0] = [p for p in dict.fromkeys(entries) if p not in sys.path]
        importlib.invalidate_caches()
        argv = list(request["argv"])
        if fds:
            argv += ["--wake-fd", str(fds[0])]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        # The top of the child process: report like the interpreter
        # would, but never unwind into the zygote's serve loop.
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


# -- the coordinator side ----------------------------------------------------------


class ForkedWorker:
    """A zygote-forked worker process, as its coordinator sees it.

    ``returncode`` is set when the zygote reports the exit; exit
    callbacks then run on the zygote's reader thread and must not
    block.  ``stderr_path`` and ``worker_id`` are set by the spawner.
    """

    def __init__(self, args: List[str], wake_fd: int) -> None:
        self.args = args
        self.pid: Optional[int] = None
        self.returncode: Optional[int] = None
        self.stderr_path: Optional[Path] = None
        self.worker_id: Optional[str] = None
        self._error: Optional[OSError] = None
        self._wake_fd: Optional[int] = wake_fd
        self._callbacks: List[Callable] = []
        self._lock = threading.Lock()
        self._started = threading.Event()
        self._done = threading.Event()

    def poll(self) -> Optional[int]:
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if not self._done.wait(timeout):
            raise subprocess.TimeoutExpired(self.args, timeout)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)

    def wake(self) -> None:
        """Cut the worker's current poll wait short (one byte on its pipe)."""
        with self._lock:
            if self._wake_fd is None:
                return
            try:
                os.write(self._wake_fd, b"\0")
            except OSError:
                pass  # full (a wake-up is already pending) or gone

    def add_exit_callback(self, callback: Callable[["ForkedWorker"], None]) -> None:
        """Call ``callback(self)`` once the process has exited."""
        with self._lock:
            if self.returncode is None:
                self._callbacks.append(callback)
                return
        callback(self)

    def _exited(self, code: int) -> None:
        with self._lock:
            if self.returncode is not None:
                return
            self.returncode = code
            callbacks, self._callbacks = self._callbacks, []
            if self._wake_fd is not None:
                os.close(self._wake_fd)
                self._wake_fd = None
        self._done.set()
        for callback in callbacks:
            callback(self)


class _Zygote:
    """One running zygote: its socket, reader thread and live children."""

    def __init__(self, env: dict) -> None:
        ours, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.fabric._zygote", str(theirs.fileno())],
                env=env,
                stdin=subprocess.DEVNULL,
                pass_fds=[theirs.fileno()],
            )
        finally:
            theirs.close()
        self.sock = ours
        self.owner = os.getpid()
        self.lost = False
        self._send_lock = threading.Lock()
        self._pending: collections.deque = collections.deque()
        self._live: Dict[int, ForkedWorker] = {}
        self._reader = threading.Thread(
            target=self._read, name="fabric-zygote", daemon=True
        )
        self._reader.start()

    def spawn(self, argv: List[str], env: dict, stderr_path: Path) -> ForkedWorker:
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_w, False)
        handle = ForkedWorker(argv, wake_w)
        try:
            cwd = os.getcwd()
        except OSError:  # deleted under us: the child keeps the zygote's
            cwd = None
        request = {"argv": argv, "env": env, "cwd": cwd, "stderr": str(stderr_path)}
        try:
            with self._send_lock:
                if self.lost:
                    raise ZygoteLost("zygote is gone")
                self._pending.append(handle)
                try:
                    _send(self.sock, request, [wake_r])
                except OSError as exc:
                    self._pending.remove(handle)
                    raise ZygoteLost(f"zygote is gone: {exc}") from exc
        except BaseException:
            handle._exited(-1)  # closes the write end
            raise
        finally:
            os.close(wake_r)
        handle._started.wait()
        if handle._error is not None:
            raise handle._error
        return handle

    def _read(self) -> None:
        try:
            while True:
                message, _ = _recv(self.sock)
                if message is None:
                    break
                if "exit" in message:
                    handle = self._live.pop(message["exit"], None)
                    if handle is not None:
                        handle._exited(message["code"])
                    continue
                handle = self._pending.popleft()
                if "pid" in message:
                    handle.pid = message["pid"]
                    self._live[handle.pid] = handle
                else:
                    handle._error = OSError(message.get("error", "spawn failed"))
                    handle._exited(-1)
                handle._started.set()
        except (OSError, EOFError, ValueError):
            pass
        with self._send_lock:
            self.lost = True
            pending = list(self._pending)
            self._pending.clear()
        for handle in pending:
            handle._error = ZygoteLost("zygote died before answering")
            handle._exited(-1)
            handle._started.set()
        # Children of a lost zygote are orphans: nobody can report
        # their exit codes any more, so each is watched until it is gone.
        for handle in list(self._live.values()):
            threading.Thread(
                target=_watch_orphan, args=(handle,), daemon=True
            ).start()
        self._live.clear()

    def close(self) -> None:
        # shutdown() wakes the reader's blocked recv; only then is the
        # descriptor closed, so the reader can never read a reused fd.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(timeout=5.0)
        self.sock.close()
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


#: Exit code reported for an orphaned worker whose real status was lost.
ORPHAN_EXIT_CODE = 1


def _watch_orphan(handle: ForkedWorker) -> None:
    """Wait until a lost zygote's child is gone (its status is lost)."""
    try:
        fd = os.pidfd_open(handle.pid)
    except ProcessLookupError:
        pass
    except (AttributeError, OSError):  # no pidfds: poll for the pid
        while True:
            try:
                os.kill(handle.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    else:
        select.select([fd], [], [])
        os.close(fd)
    handle._exited(ORPHAN_EXIT_CODE)


_zygote: Optional[_Zygote] = None
_zygote_lock = threading.Lock()


def _current(env: dict, lost: Optional[_Zygote] = None) -> _Zygote:
    """This process's zygote, (re)started when missing or dead."""
    global _zygote
    with _zygote_lock:
        zygote = _zygote
        if (
            zygote is None
            or zygote is lost
            or zygote.lost
            or zygote.owner != os.getpid()
            or zygote.proc.poll() is not None
        ):
            if zygote is not None and zygote.owner == os.getpid():
                zygote.close()
            zygote = _zygote = _Zygote(env)
        return zygote


def fork_worker(argv: List[str], env: dict, stderr_path: Path) -> ForkedWorker:
    """Fork ``repro.fabric.worker.main(argv)`` from this process's zygote.

    A zygote found dead is replaced, once, before the request fails.
    """
    zygote = _current(env)
    try:
        return zygote.spawn(argv, env, stderr_path)
    except ZygoteLost:
        return _current(env, lost=zygote).spawn(argv, env, stderr_path)


@atexit.register
def _shutdown() -> None:
    zygote = _zygote
    if zygote is not None and zygote.owner == os.getpid():
        zygote.close()
