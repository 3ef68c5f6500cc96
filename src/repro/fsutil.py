"""Crash-safe filesystem helpers.

Every file this repository exports — cache entries, telemetry
snapshots, progress feeds, lease files — is written through the
same pattern: serialise to a temporary file in the *same directory*,
then :func:`os.replace` it over the destination.  ``os.replace`` is
atomic on POSIX and Windows for same-filesystem moves, so a reader (or
a resumed run) can only ever observe the old complete file or the new
complete file — never a truncated hybrid, even if the writer is
SIGKILLed mid-write.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "tmp_writer_alive"]


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = Path(path)
    # The tmp name must be unique per *writer*, not per process: two
    # threads of one process writing the same path (a worker's
    # heartbeat thread racing its compute thread on a lease file)
    # would otherwise interleave inside a shared tmp file and rename
    # torn bytes into place.  The pid stays last so crash-sweepers can
    # parse it for a liveness check.
    tmp = path.with_name(
        f"{path.name}.tmp.{threading.get_ident()}.{os.getpid()}"
    )
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    finally:
        # Only reached with the tmp file still present when the write or
        # replace itself failed; never leave the litter behind.
        if tmp.exists():
            tmp.unlink()


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    atomic_write_bytes(path, text.encode(encoding))


def tmp_writer_alive(path: Union[str, Path]) -> bool:
    """Whether the writer of an atomic-write tmp file may still rename it.

    Tmp names end in the writer's pid.  While that process runs, the
    file is an in-flight write and must not be removed; once it is gone,
    nothing will ever rename the file.  A name without a pid suffix is
    treated as live, so it is never swept.
    """
    suffix = Path(path).name.rsplit(".", 1)[-1]
    if not suffix.isdigit():
        return True
    try:
        os.kill(int(suffix), 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True
