"""Progress heartbeats and per-cell telemetry for experiment grids.

A year-scale grid run is minutes-to-hours of silence without this:
:class:`ProgressReporter` is a callable the experiment execution
backend (:func:`repro.experiments.parallel.execute_cells`) invokes
once per finished cell, printing ``done/total``, cache provenance,
elapsed wall time and an ETA to a stream (stderr by default) —
never touching stdout, which belongs to the experiment's tables.

:func:`write_cells_jsonl` persists the same per-cell facts (scenario,
policy, scheduler, wall seconds, cache provenance, derived seed) into
the run's telemetry directory so ``repro stats`` can reconstruct where
a sweep's time went after the fact.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List, Optional, TextIO, Union

from ..fsutil import atomic_write_text

__all__ = [
    "ProgressReporter",
    "cell_provenance",
    "write_cells_jsonl",
    "read_cells_jsonl",
    "CELLS_FILENAME",
]

CELLS_FILENAME = "cells.jsonl"


def cell_provenance(cell) -> str:
    """The provenance of anything cell-shaped, ``"computed"`` if unknown.

    Reads the explicit ``provenance`` attribute when present
    (:class:`~repro.experiments.parallel.CellOutcome`,
    :class:`~repro.experiments.runner.ExperimentCell`), otherwise falls
    back to the ``from_cache`` boolean so duck-typed callers keep
    working.
    """
    provenance = getattr(cell, "provenance", None)
    if provenance:
        return provenance
    return "cache_hit" if getattr(cell, "from_cache", False) else "computed"


class ProgressReporter:
    """Prints one heartbeat line per completed experiment cell.

    The reporter is duck-typed to the execution backend's ``progress``
    hook: it is simply called with each
    :class:`~repro.experiments.parallel.CellOutcome` as it completes
    (cache hits included).  ``add_total`` is optional pre-registration
    of upcoming work so the heartbeat can show ``done/total`` and an
    ETA; without it, only the running count is shown.

    Args:
        stream: where heartbeats go; defaults to ``sys.stderr``.
        min_interval_seconds: suppress heartbeats closer together than
            this (the final cell always prints); 0 prints every cell.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_seconds: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval_seconds
        self._clock = clock
        self._start = clock()
        self._last_print = -float("inf")
        self.total = 0
        self.done = 0
        self.cached = 0
        self.elsewhere = 0
        self.sim_seconds = 0.0

    def add_total(self, count: int) -> None:
        """Pre-register ``count`` upcoming cells (may be called per batch)."""
        self.total += count

    def __call__(self, outcome) -> None:
        """Record one finished cell and maybe print a heartbeat."""
        self.done += 1
        provenance = cell_provenance(outcome)
        if provenance == "cache_hit":
            self.cached += 1
        elif provenance == "claimed_elsewhere":
            self.elsewhere += 1
        else:
            self.sim_seconds += getattr(outcome, "wall_seconds", 0.0)
        now = self._clock()
        finished = self.total and self.done >= self.total
        if not finished and now - self._last_print < self._min_interval:
            return
        self._last_print = now
        self._stream.write(self._line(now) + "\n")
        self._stream.flush()

    def _line(self, now: float) -> str:
        elapsed = now - self._start
        if self.total:
            head = f"[repro] {self.done}/{self.total} cells"
            remaining = self.total - self.done
            if self.done and remaining > 0:
                eta = elapsed / self.done * remaining
                tail = f"elapsed {elapsed:.1f}s, eta {eta:.1f}s"
            else:
                tail = f"elapsed {elapsed:.1f}s"
        else:
            head = f"[repro] {self.done} cells"
            tail = f"elapsed {elapsed:.1f}s"
        split = f"{self.cached} cached"
        if self.elsewhere:
            split += f", {self.elsewhere} elsewhere"
        return f"{head} ({split}), {tail}"


def write_cells_jsonl(cells, directory: Union[str, Path]) -> Path:
    """Write per-cell execution telemetry (one JSON object per cell).

    Accepts anything with the cell attribute set shared by
    :class:`~repro.experiments.parallel.CellOutcome` and
    :class:`~repro.experiments.runner.ExperimentCell`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / CELLS_FILENAME
    atomic_write_text(
        path,
        "".join(
            json.dumps(
                {
                    "scenario": cell.scenario_name,
                    "policy": cell.policy_name,
                    "policy_spec": getattr(cell, "policy_spec", None),
                    "scheduler": cell.scheduler_name,
                    "wall_seconds": round(cell.wall_seconds, 6),
                    "from_cache": bool(cell.from_cache),
                    "provenance": cell_provenance(cell),
                    "seed": cell.seed,
                },
                sort_keys=True,
            )
            + "\n"
            for cell in cells
        ),
    )
    return path


def read_cells_jsonl(path: Union[str, Path]) -> List[dict]:
    """Load per-cell telemetry previously written by :func:`write_cells_jsonl`."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
