"""In-memory span recorder for the traced benchmark runs.

A span is one call into a layer: its name, the span that was open when
it started (its parent), its start and its end.  The recorder keeps,
per thread, a stack of open spans, so that a span's *self time* is its
duration minus the time its child spans cover.  Per-name aggregates
(calls, total seconds, self seconds and one workload-defined counter)
are exact over every call; raw spans are kept in memory up to a cap and
written out when the benchmark ends.

Nothing here is imported by the program under test: the benchmark wraps
public methods with :meth:`SpanRecorder.wrap` from the outside, and only
in traced runs.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Raw spans kept per thread; aggregates stay exact beyond it.
DEFAULT_KEEP_RAW = 50_000


class _ThreadSpans:
    """One thread's open-span stack, aggregates and raw spans."""

    __slots__ = ("ident", "names", "child", "rows", "raw", "top")

    def __init__(self, ident: int, n_names: int) -> None:
        self.ident = ident
        self.names: List[int] = []  # open span name ids, innermost last
        self.child: List[float] = []  # child seconds of each open span
        # Per name id: [calls, total seconds, self seconds, counter].
        self.rows: List[List[float]] = [[0, 0.0, 0.0, 0] for _ in range(n_names)]
        self.raw: List[tuple] = []
        self.top = 0.0  # seconds inside outermost spans


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self, keep_raw: int = DEFAULT_KEEP_RAW) -> None:
        self.keep_raw = keep_raw
        self.epoch = perf_counter()
        #: Identifier shared by the spans of one simulated run or grid.
        self.run = 0
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- registration -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The id of span ``name``, registering it on first use."""
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = len(self._names)
                self._names.append(name)
                self._ids[name] = nid
                for state in self._threads:
                    state.rows.append([0, 0.0, 0.0, 0])
            return nid

    def _state(self) -> _ThreadSpans:
        with self._lock:
            state = _ThreadSpans(threading.get_ident(), len(self._names))
            self._threads.append(state)
        self._local.state = state
        return state

    # -- wrapping -----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[tuple, Any], float]] = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``count(args, result)``, when given, is added to the name's
        counter after each call that returns (e.g. 1 for a won lease).
        """
        nid = self.name_id(name)
        local = self._local
        new_state = self._state
        recorder = self
        clock = perf_counter

        def timed(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            names = state.names
            childs = state.child
            parent = names[-1] if names else -1
            names.append(nid)
            childs.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                names.pop()
                child = childs.pop()
                duration = end - start
                if childs:
                    childs[-1] += duration
                else:
                    state.top += duration
                row = state.rows[nid]
                row[0] += 1
                row[1] += duration
                row[2] += duration - child
                if len(state.raw) < recorder.keep_raw:
                    state.raw.append((recorder.run, nid, parent, start, end))
            if count is not None:
                row[3] += count(args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def iterate(self, name: str, iterable) -> "TimedIterator":
        """An iterator over ``iterable`` whose every ``next`` is a span.

        The name's counter counts the items yielded.
        """
        return TimedIterator(self.wrap(name, iter(iterable).__next__, _one))

    # -- results --------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``/``total_s``/``self_s``/``count`` over all threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for nid, name in enumerate(self._names):
                calls = total = self_s = counter = 0
                for state in self._threads:
                    row = state.rows[nid]
                    calls += row[0]
                    total += row[1]
                    self_s += row[2]
                    counter += row[3]
                out[name] = {
                    "calls": calls, "total_s": total, "self_s": self_s,
                    "count": counter,
                }
        return out

    def top_level_s(self, ident: Optional[int] = None) -> float:
        """Seconds spent inside outermost spans (one thread, or all)."""
        with self._lock:
            return sum(
                s.top for s in self._threads if ident is None or s.ident == ident
            )

    def dump(self, path, meta: Optional[dict] = None) -> None:
        """Write aggregates and the kept raw spans as one JSON document."""
        with self._lock:
            names = list(self._names)
            raw = [
                [state.ident, run, names[nid], names[parent] if parent >= 0 else None,
                 round(start - self.epoch, 9), round(end - self.epoch, 9)]
                for state in self._threads
                for run, nid, parent, start, end in state.raw
            ]
        doc = {
            "meta": meta or {},
            "totals": self.totals(),
            "top_level_s": self.top_level_s(),
            "span_fields": ["thread", "run", "name", "parent", "start_s", "end_s"],
            "spans": raw,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class TimedIterator:
    """Iterator whose every ``next`` runs inside a recorded span."""

    __slots__ = ("_next",)

    def __init__(self, timed_next: Callable) -> None:
        self._next = timed_next

    def __iter__(self) -> "TimedIterator":
        return self

    def __next__(self):
        return self._next()


def _one(_args, _result) -> int:
    return 1


def merge_totals(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-name aggregates from several recorders (e.g. processes)."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
            )
            for key in acc:
                acc[key] += row.get(key, 0)
    return out
