"""Standard Workload Format (SWF) streaming adapter.

SWF is the Parallel Workloads Archive's interchange format for real
scheduler logs (Feitelson et al.): one job per line, 18 whitespace-
separated numeric fields, ``;``-prefixed comment/header lines, jobs
ordered by submission time.  Reuther et al. (arXiv:1705.03102) motivate
it as the standard carrier for HPC scheduler traces, which makes it the
natural import path for replaying real logs through this reproduction.

Everything here streams: :func:`iter_swf_rows` (plain value rows, what
replay reads) and :func:`iter_swf_jobs` (the same rows as
:class:`SWFJob` records) parse one line at a time, so a multi-gigabyte
archive trace replays in constant memory.  :func:`write_swf` emits the
canonical single-space formatting the fixtures use, so they round-trip
**byte-for-byte** through parse + re-emit (``tests/test_traces_swf.py``).

Field reference (1-based, as in the SWF definition):

==  =======================  ==  =======================
 1  job number                10  requested memory (KB)
 2  submit time (s)           11  status
 3  wait time (s)             12  user id
 4  run time (s)              13  group id
 5  allocated processors      14  executable number
 6  average CPU time (s)      15  queue number
 7  used memory (KB)          16  partition number
 8  requested processors      17  preceding job number
 9  requested time (s)        18  think time (s)
==  =======================  ==  =======================

Unknown values are ``-1`` throughout, per the SWF convention.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from ...errors import TraceError

__all__ = [
    "SWF_FIELD_COUNT",
    "SWFJob",
    "iter_swf_jobs",
    "iter_swf_rows",
    "read_swf",
    "write_swf",
    "format_swf_job",
]

#: An SWF record always carries exactly this many fields.
SWF_FIELD_COUNT = 18

Source = Union[str, Path, IO[str]]
T = TypeVar("T")


@dataclass(frozen=True)
class SWFJob:
    """One SWF record; field order matches the on-disk column order."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float
    used_memory_kb: float
    requested_procs: int
    requested_time: float
    requested_memory_kb: float
    status: int
    user_id: int
    group_id: int
    executable: int
    queue: int
    partition: int
    preceding_job: int
    think_time: float


#: Which of the 18 columns are integral (the rest may carry fractions).
_INT_FIELDS = frozenset((0, 4, 7, 10, 11, 12, 13, 14, 15, 16))


def _parse_fractional_row(tokens: List[str], where: str) -> List[Union[int, float]]:
    """Per-column parse of a line with a non-integral token.  Columns
    outside ``_INT_FIELDS`` keep integral tokens as ints (so canonical
    re-emission is byte-for-byte) and read ``.``/exponent tokens as
    finite floats."""
    row: List[Union[int, float]] = []
    for index, token in enumerate(tokens):
        try:
            if index in _INT_FIELDS:
                value: Union[int, float] = int(token)
            else:
                value = float(token)
                if "." not in token and "e" not in token and "E" not in token:
                    value = int(token)
                elif not math.isfinite(value):
                    raise TraceError(f"{where}: non-finite SWF field {index + 1} ({token!r})")
        except ValueError as exc:
            raise TraceError(f"{where}: non-numeric SWF field ({exc})") from None
        row.append(value)
    return row


def _format_field(value: Union[int, float]) -> str:
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


#: The 18 field values of an :class:`SWFJob`, read shallowly in column order.
_job_values = attrgetter(*(f.name for f in fields(SWFJob)))


def _format_row(values: Sequence[Union[int, float]]) -> str:
    # ``str`` is canonical for every int and float except an integral
    # float under 1e16, whose ``str`` always holds a "." (as does any
    # other finite float's); only such lines take the per-field path.
    line = " ".join(map(str, values))
    if "." in line:
        return " ".join(map(_format_field, values))
    return line


def format_swf_job(job: SWFJob) -> str:
    """The canonical (single-space separated) SWF line for ``job``."""
    return _format_row(_job_values(job))


def _open(source: Source):
    """``(file, should_close)`` for a path or an already-open stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def iter_swf_rows(
    source: Source, project: Optional[Callable[[List[Union[int, float]]], T]] = None
) -> Iterator[Union[List[Union[int, float]], T]]:
    """Yield each SWF record of ``source`` (a path or text stream) as its
    18 values in column order, skipping ``;`` comments and blank lines.

    An all-integer line (the common encoding) parses in one ``int`` pass;
    any other falls back to the per-column rules, so values and types do
    not depend on the path taken.  A wrong field count or a non-numeric
    or non-finite field raises :class:`~repro.errors.TraceError` naming
    ``file:line``: a corrupt download fails at the bad byte.

    ``project``, when given, maps each row before it is yielded; an
    ``OverflowError`` it raises (an integer too large for a float) also
    becomes a ``TraceError`` naming ``file:line``.
    """
    handle, should_close = _open(source)
    name = getattr(handle, "name", "<swf>")
    try:
        for line_number, line in enumerate(handle, start=1):
            tokens = line.split()
            if not tokens or tokens[0][0] == ";":
                continue
            if len(tokens) != SWF_FIELD_COUNT:
                raise TraceError(
                    f"{name}:{line_number}: SWF line has {len(tokens)} "
                    f"fields, expected {SWF_FIELD_COUNT}"
                )
            try:
                row = list(map(int, tokens))
            except ValueError:
                row = _parse_fractional_row(tokens, f"{name}:{line_number}")
            if project is not None:
                try:
                    row = project(row)
                except OverflowError as exc:
                    raise TraceError(
                        f"{name}:{line_number}: SWF value out of float range ({exc})"
                    ) from None
            yield row
    finally:
        if should_close:
            handle.close()


def iter_swf_jobs(source: Source) -> Iterator[SWFJob]:
    """:func:`iter_swf_rows` as :class:`SWFJob` records (same rules and errors)."""
    return starmap(SWFJob, iter_swf_rows(source))


def read_swf(source: Source) -> Tuple[List[str], List[SWFJob]]:
    """Materialise ``source``: ``(comment lines, jobs)``.

    Comment lines are preserved verbatim (without trailing newlines) so
    a header-commented file written by :func:`write_swf` round-trips
    byte-for-byte.  Convenience for tests and small fixtures — replay
    paths should use the streaming :func:`iter_swf_jobs` instead.
    """
    comments: List[str] = []
    jobs: List[SWFJob] = []
    handle, should_close = _open(source)
    try:
        text = handle.read()
    finally:
        if should_close:
            handle.close()
    buffer = io.StringIO(text)
    for line in buffer:
        stripped = line.rstrip("\n")
        if stripped.lstrip().startswith(";"):
            comments.append(stripped)
    jobs.extend(iter_swf_jobs(io.StringIO(text)))
    return comments, jobs


def _write_swf_rows(
    dest: Source, rows: Iterable[Sequence[Union[int, float]]], comments: Iterable[str]
) -> int:
    """:func:`write_swf` over plain 18-value rows in column order (the
    writing mirror of :func:`iter_swf_rows`)."""
    if isinstance(dest, (str, Path)):
        handle: IO[str] = open(dest, "w", encoding="utf-8")
        should_close = True
    else:
        handle, should_close = dest, False
    count = 0
    try:
        for comment in comments:
            if not comment.lstrip().startswith(";"):
                comment = f"; {comment}"
            handle.write(comment + "\n")
        for row in rows:
            handle.write(_format_row(row) + "\n")
            count += 1
    finally:
        if should_close:
            handle.close()
    return count


def write_swf(
    dest: Source, jobs: Iterable[SWFJob], comments: Iterable[str] = ()
) -> int:
    """Write ``comments`` then ``jobs`` in canonical form; returns job count.

    Comment lines are written verbatim (a leading ``;`` is added when
    missing) before the job lines.  Output from ``write_swf(path,
    *read_swf(path)[::-1])`` is byte-identical to a canonical input —
    the round-trip property the fixture tests pin.
    """
    return _write_swf_rows(dest, map(_job_values, jobs), comments)
