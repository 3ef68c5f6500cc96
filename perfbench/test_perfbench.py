"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.probes import Patcher  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.workloads import GridSweep, SuspensionHeavy, TraceReplay  # noqa: E402


def _records(job_ids):
    return [SimpleNamespace(job_id=job_id) for job_id in job_ids]


def test_complete_records_pass():
    assert checks.record_problems([1, 2, 3], _records([3, 1, 2])) == []


def test_dropped_job_is_a_problem():
    assert checks.record_problems([1, 2, 3], _records([1, 3]))


def test_duplicated_and_unknown_records_are_problems():
    assert checks.record_problems([1, 2], _records([1, 2, 2]))
    assert checks.record_problems([1, 2], _records([1, 2, 9]))


def test_sink_must_count_every_fed_job():
    assert checks.sink_problems(100, 100) == []
    assert checks.sink_problems(100, 99)


def test_corrupted_digest_is_a_problem():
    good = "ab" * 32
    bad = "cd" + good[2:]
    assert checks.digest_problems(good, good, good[:16]) == []
    assert checks.digest_problems(bad, good, None)
    assert checks.digest_problems(bad, bad, good[:16])


class _SmallSuspension(SuspensionHeavy):
    scale = 0.05
    jobs = 1_500
    inputs = 1
    builds = 1


class _SmallReplay(TraceReplay):
    jobs = 500
    scale = 0.05
    inputs = 1
    builds = 1


def test_a_missing_grid_cell_counts_once_and_shifts_nothing():
    first = ["a" * 64, "b" * 64, "c" * 64]
    assert checks.grid_problems(first, first, None) == []
    problems = checks.grid_problems([first[0], None, first[2]], first, None)
    assert problems == ["cell 1: no outcome"]
    wrong = checks.grid_problems([first[0], first[1], "d" * 64], first, None)
    assert len(wrong) == 1 and wrong[0].startswith("cell 2:")


class _SmallGrid(GridSweep):
    n_seeds = 1
    builds = 1


def test_grid_rep_counts_a_failed_cell_once(tmp_path, monkeypatch):
    """A cell the fabric could not complete fails once; its neighbours pass."""
    from repro.experiments.parallel import run_grid_parallel

    fail_cell = []

    def fake_fabric(tasks, backend, cache, **kwargs):
        assert kwargs.get("keep_going") is True
        report = run_grid_parallel(tasks, n_workers=1)
        outcomes = list(report.outcomes)
        failures = ()
        if fail_cell:
            outcomes[fail_cell[0]] = None
            failures = (SimpleNamespace(
                index=fail_cell[0], error_type="RuntimeError", message="boom"
            ),)
        return SimpleNamespace(outcomes=tuple(outcomes), failures=failures)

    monkeypatch.setattr(workloads, "run_grid_fabric", fake_fabric)
    grid = _SmallGrid(4, tmp_path)
    grid.setup()
    good = grid.run(0)
    assert good.cells == 3 and good.failed == 0
    fail_cell.append(0)
    bad = grid.run(0)
    assert bad.failed == 1
    assert not any(problem.startswith(("cell 1", "cell 2")) for problem in bad.problems)


def test_workload_counts_a_reference_mismatch_as_failed(tmp_path):
    workload = _SmallSuspension(3, tmp_path)
    workload.setup()
    good = workload.run(0)
    assert good.failed == 0 and good.jobs > 0
    seed = str(workload.input_seed(0))
    corrupt = "0" * 16 if not good.digest.startswith("0" * 16) else "f" * 16
    workload.references = {
        workload.name: {"params": workload.params(), "digests": {seed: corrupt}}
    }
    assert workload.run(0).failed == 1


def test_workload_counts_a_dropped_job_as_failed(tmp_path):
    workload = _SmallSuspension(3, tmp_path)
    workload.setup()
    seed, trace, cluster, policy, config, job_ids = workload._inputs[0]
    workload._inputs[0] = (seed, trace, cluster, policy, config, job_ids + [-1])
    rep = workload.run(0)
    assert rep.failed == 1
    assert any("no record" in problem for problem in rep.problems)


def test_traced_replay_matches_untraced_and_restores_the_program(tmp_path):
    from repro.simulator.pool import PhysicalPool

    original = PhysicalPool.submit
    workload = _SmallReplay(2, tmp_path)
    workload.setup()
    plain = workload.run(0)
    recorder = SpanRecorder()
    traced = workload.run(0, recorder)
    assert PhysicalPool.submit is original
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    totals = recorder.totals()
    assert totals["workload.replay"]["count"] == workload.jobs
    assert totals["sink.add_record"]["calls"] == workload.jobs


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    import time

    def inner():
        time.sleep(0.02)

    timed_inner = recorder.wrap("inner", inner)

    def outer():
        timed_inner()
        time.sleep(0.01)

    recorder.wrap("outer", outer)()
    totals = recorder.totals()
    assert totals["outer"]["total_s"] >= totals["inner"]["total_s"] >= 0.02
    assert abs(
        totals["outer"]["self_s"]
        - (totals["outer"]["total_s"] - totals["inner"]["total_s"])
    ) < 1e-9
    assert recorder.top_level_s() == totals["outer"]["total_s"]


def test_patcher_restores_inherited_and_own_methods():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        def g(self):
            return 2

    recorder = SpanRecorder()
    with Patcher(recorder) as patch:
        patch.wrap(Child, "f", "f")
        patch.wrap(Child, "g", "g")
        assert Child().f() == 1 and Child().g() == 2
    assert "f" not in Child.__dict__
    assert Child.g is Child.__dict__["g"] and Child().g() == 2
    assert recorder.totals()["f"]["calls"] == 1


def test_run_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in line


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"jobs_per_s", "cells_per_s", "peak_rss_mb", "setup_s"} <= set(names)
    assert {"trace.overhead_ratio", "error_rate", "engine.self_s"} <= set(names)
