"""Opt-in wall-clock profiling of the engine's layers.

With ``Instrumentation(profile=True)`` the engine hands itself to
:meth:`LayerProfiler.attach` for one run, which swaps its layers'
methods for span wrappers (layer names as ``perfbench`` reports them);
the engine's exit stack restores them, so an unprofiled run executes
the classes exactly as written.  Methods are swapped on the *classes*,
because the hot classes are slotted, and a wrapper times a call only
when its receiver is one of the profiled engine's objects: an
unprofiled engine on another thread runs the original, untimed.
Profiled runs take a module lock, so two never stack wrappers on one
class.  Self times exclude enclosed spans, and ``engine.self`` is the
wall time outside outermost spans, so the rows sum to the wall.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["LayerProfiler", "LayerStats", "ProfileReport", "swap"]

_MISSING = object()
_PATCH_LOCK = threading.RLock()  # held while a profiled run's swaps are in

#: The swapped methods: (engine -> objects receiving the calls, {method: layer}).
_LAYERS: Tuple[Tuple[Callable, Dict[str, str]], ...] = (
    (lambda engine: [engine._events],
     {"push": "events.push", "push_many_unsorted": "events.push_many", "pop": "events.pop",
      "peek_time": "events.peek", "advance_to": "events.advance"}),
    (lambda engine: engine._vpms, {"submit": "vpm.submit"}),
    (lambda engine: [engine.scheduler], {"order": "scheduler.order"}),
    (lambda engine: engine.pools.values(),
     {"submit": "pool.submit", "fill_machine": "pool.fill_machine", "detach_running": "pool.detach",
      "detach_suspended": "pool.detach", "remove_waiting": "pool.detach"}),
    (lambda engine: [m for pool in engine.pools.values() for m in pool.machines],
     {"preemption_victims": "machine.preemption_victims"}),
    (lambda engine: [pool.wait_queue for pool in engine.pools.values()],
     {"push": "waitq.push", "pop": "waitq.pop", "remove": "waitq.remove",
      "best_schedulable": "waitq.best_schedulable"}),
    (lambda engine: [engine.policy],
     {"on_suspend": "policy.on_suspend", "on_wait_timeout": "policy.on_wait_timeout"}),
    (lambda engine: filter(None, [getattr(engine.policy, "selector", None)]),
     {"select": "selector.select"}),
)


def swap(stack: ExitStack, owner, attr: str, value) -> None:
    """Set ``owner.attr`` to ``value`` until ``stack`` unwinds."""
    own = owner.__dict__.get(attr, _MISSING)
    setattr(owner, attr, value)
    if own is _MISSING:  # inherited: unwinding deletes the override
        stack.callback(delattr, owner, attr)
    else:
        stack.callback(setattr, owner, attr, own)


class LayerStats(NamedTuple):
    """One layer's calls and self time over a run."""

    layer: str
    calls: int
    self_seconds: float


@dataclass(frozen=True)
class ProfileReport:
    """The layer table of one run; self times sum to ``wall_seconds``."""

    layers: Tuple[LayerStats, ...]
    wall_seconds: float

    def render(self) -> str:
        """A plain-text table for CLI output, largest self time first."""
        lines = [
            f"{'layer':<28} {'calls':>10} {'self s':>9} {'mean us':>8} {'% wall':>7}",
            "-" * 66,
        ]
        wall = self.wall_seconds if self.wall_seconds > 0 else 1.0
        for layer, calls, seconds in sorted(self.layers, key=lambda row: -row[2]):
            mean = seconds / calls * 1e6 if calls else 0.0
            lines.append(
                f"{layer:<28} {calls:>10.0f} {seconds:>9.3f} {mean:>8.1f} "
                f"{100.0 * seconds / wall:>6.1f}%"
            )
        lines.append(f"total: {self.wall_seconds:.3f}s wall")
        return "\n".join(lines)


class LayerProfiler:
    """Times one engine run's layer calls through swapped methods."""

    def __init__(self) -> None:
        self._rows: Dict[str, List[float]] = {}  # layer -> [calls, self s]
        self._open: List[float] = []  # enclosed seconds of each open span
        self._covered = [0.0]  # seconds inside outermost spans
        self._started = 0.0
        self.wall_seconds = 0.0

    def attach(self, engine, stack: ExitStack) -> None:
        """Start the clock and swap every layer method of ``engine``.

        Unwinding ``stack`` restores the methods, then stops the clock.
        """
        _PATCH_LOCK.acquire()
        self._started = perf_counter()
        stack.callback(self._stop)
        for receivers, methods in _LAYERS:
            objects = list(receivers(engine))
            mine = {id(obj) for obj in objects}
            for cls in dict.fromkeys(type(obj) for obj in objects):
                for attr, layer in methods.items():
                    swap(stack, cls, attr, self._wrap(layer, getattr(cls, attr), mine))
        swap(stack, engine, "_add_record", self._wrap("sink.add_record", engine._add_record))

    def _stop(self) -> None:
        self.wall_seconds = perf_counter() - self._started
        _PATCH_LOCK.release()

    def report(self) -> ProfileReport:
        """The layer table, ending with the ``engine.self`` row."""
        layers = [LayerStats(name, int(calls), s) for name, (calls, s) in self._rows.items()]
        engine_self = max(0.0, self.wall_seconds - self._covered[0])
        layers.append(LayerStats("engine.self", 1, engine_self))
        return ProfileReport(tuple(layers), self.wall_seconds)

    def _wrap(self, layer: str, fn: Callable, mine: Optional[set] = None) -> Callable:
        """``fn`` timed as ``layer``; with ``mine``, only for those receivers."""
        row = self._rows.setdefault(layer, [0, 0.0])
        open_spans = self._open
        covered = self._covered
        clock = perf_counter

        def span(*args, **kwargs):
            if mine is not None and id(args[0]) not in mine:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                enclosed = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                else:
                    covered[0] += duration
                row[0] += 1
                row[1] += duration - enclosed

        return span
