"""Correctness checks whose failures feed the benchmark's error count.

Each check returns a list of problems; an empty list means the run (or
cell) is correct.  A run with any problem counts once in ``failed``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Reference digests for the default seeds, written by ``make_reference.py``.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def record_problems(trace_job_ids: Iterable[int], records: Sequence) -> List[str]:
    """Every trace job must have exactly one record, and nothing else."""
    expected = set(trace_job_ids)
    seen = Counter(record.job_id for record in records)
    problems = []
    missing = len(expected - seen.keys())
    if missing:
        problems.append(f"{missing} trace job(s) have no record")
    duplicated = sum(1 for count in seen.values() if count > 1)
    if duplicated:
        problems.append(f"{duplicated} job(s) have more than one record")
    unknown = len(seen.keys() - expected)
    if unknown:
        problems.append(f"{unknown} record(s) name no trace job")
    return problems


def sink_problems(jobs_fed: int, jobs_counted: int) -> List[str]:
    """Every job the feed yielded must be counted exactly once by the sink."""
    if jobs_fed != jobs_counted:
        return [f"feed yielded {jobs_fed} jobs but the sink counted {jobs_counted}"]
    return []


def digest_problems(
    digest: str, first: Optional[str], reference: Optional[str]
) -> List[str]:
    """A run's digest must match the seed's first run and the reference."""
    problems = []
    if first is not None and digest != first:
        problems.append(f"digest {digest[:12]} differs from this seed's first run {first[:12]}")
    if reference is not None and not digest.startswith(reference):
        problems.append(f"digest {digest[:12]} differs from the reference {reference[:12]}")
    return problems


def grid_problems(
    digests: Sequence[Optional[str]],
    first: Sequence[Optional[str]],
    reference: Optional[Sequence[str]],
) -> List[str]:
    """One problem per grid cell that has no outcome or a wrong digest.

    ``digests`` and ``first`` hold one slot per cell index, ``None`` where
    a cell has no outcome, so a missing cell never shifts the comparison
    of the cells after it.
    """
    problems = []
    for i, digest in enumerate(digests):
        if digest is None:
            problems.append(f"cell {i}: no outcome")
            continue
        cell = digest_problems(
            digest,
            first[i] if i < len(first) else None,
            reference[i] if reference is not None and i < len(reference) else None,
        )
        if cell:
            problems.append(f"cell {i}: " + "; ".join(cell))
    return problems


def load_references(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    """``{workload: {"params": ..., "digests": {seed: digest}}}``, or empty."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def reference_for(references: Dict[str, dict], workload: str, params: dict, seed: int):
    """The stored digest of ``workload`` at ``seed``, if its parameters match.

    A reference recorded under other workload parameters describes other
    inputs, so it is not used (``make_reference.py`` rewrites it).
    """
    entry = references.get(workload)
    if entry is None or entry.get("params") != params:
        return None
    return entry.get("digests", {}).get(str(seed))
