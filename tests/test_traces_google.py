"""Google task_events adapter: watermark ordering, lifecycle, errors."""

from __future__ import annotations

import io

import pytest

from repro.errors import TraceError
from repro.workload.traces import (
    TraceReplaySpec,
    generate_google_fixture,
    iter_google_tasks,
)
from repro.workload.traces.googlecluster import (
    EVENT_EVICT,
    EVENT_FAIL,
    EVENT_FINISH,
    EVENT_KILL,
)


def _row(ts, job_id, index, event, user="u0", klass=0, priority=0,
         cpu=0.05, mem=0.01):
    machine = "" if event == 0 else str(4_000_000 + job_id)
    return (
        f"{ts},,{job_id},{index},{machine},{event},{user},{klass},"
        f"{priority},{cpu},{mem},0.001,0"
    )


def _feed(rows):
    return io.StringIO("\n".join(rows) + "\n")


class TestLifecycle:
    def test_submit_schedule_finish_emits_one_task(self):
        rows = [_row(100, 1, 0, 0), _row(200, 1, 0, 1), _row(900, 1, 0, 4)]
        (task,) = iter_google_tasks(_feed(rows))
        assert task.submit_us == 100
        assert task.schedule_us == 200
        assert task.end_us == 900
        assert task.end_event == EVENT_FINISH
        assert task.runtime_us == 700
        assert task.wait_us == 100

    def test_emission_is_submit_ordered_across_interleaved_tasks(self):
        # Task B submits after A but finishes first; emission must still
        # come out in submission order.
        rows = [
            _row(100, 1, 0, 0),
            _row(150, 2, 0, 0),
            _row(160, 2, 0, 1),
            _row(200, 2, 0, 4),
            _row(300, 1, 0, 1),
            _row(900, 1, 0, 4),
        ]
        tasks = list(iter_google_tasks(_feed(rows)))
        assert [t.job_id for t in tasks] == [1, 2]
        assert [t.submit_us for t in tasks] == [100, 150]

    def test_evict_is_not_terminal(self):
        rows = [
            _row(100, 1, 0, 0),
            _row(200, 1, 0, 1),
            _row(300, 1, 0, EVENT_EVICT),
            _row(400, 1, 0, 1),
            _row(900, 1, 0, EVENT_KILL),
        ]
        (task,) = iter_google_tasks(_feed(rows))
        assert task.end_event == EVENT_KILL
        assert task.schedule_us == 200  # first schedule wins

    def test_fail_terminal_and_stats(self):
        stats = {}
        rows = [
            _row(100, 1, 0, 0),
            _row(200, 1, 0, 1),
            _row(300, 1, 0, EVENT_FAIL),
            _row(400, 2, 0, 0),  # never scheduled: dropped at EOF
        ]
        tasks = list(iter_google_tasks(_feed(rows), stats=stats))
        assert [t.end_event for t in tasks] == [EVENT_FAIL]
        assert stats["emitted"] == 1
        assert stats["dropped_open"] == 1

    def test_killed_while_queued_is_counted_not_emitted(self):
        stats = {}
        rows = [_row(100, 1, 0, 0), _row(500, 1, 0, EVENT_KILL)]
        assert list(iter_google_tasks(_feed(rows), stats=stats)) == []
        assert stats["dropped_unscheduled"] == 1

    def test_terminal_without_submit_is_ignored(self):
        stats = {}
        rows = [_row(100, 1, 0, 4)]
        assert list(iter_google_tasks(_feed(rows), stats=stats)) == []
        assert stats["emitted"] == 0


class TestErrors:
    def test_regressing_timestamp_raises(self):
        rows = [_row(500, 1, 0, 0), _row(400, 2, 0, 0)]
        with pytest.raises(TraceError, match="timestamp"):
            list(iter_google_tasks(_feed(rows)))

    def test_short_row_raises(self):
        with pytest.raises(TraceError, match="13"):
            list(iter_google_tasks(io.StringIO("1,2,3\n")))

    @pytest.mark.parametrize(
        "cpu, mem", [(0.05, "inf"), (0.05, "nan"), ("inf", 0.01), (0.05, "-1e999")]
    )
    def test_non_finite_request_names_file_and_line(self, tmp_path, cpu, mem):
        path = tmp_path / "bad.csv"
        rows = [_row(100, 1, 0, 0), _row(150, 2, 0, 0, cpu=cpu, mem=mem)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match=r"bad\.csv:2: non-finite"):
            list(iter_google_tasks(path))

    def test_infinite_memory_is_a_trace_error_in_replay(self, tmp_path):
        # Replay used to crash with a bare OverflowError while quantising
        # an infinite memory request (and turned NaN into the default).
        path = tmp_path / "bad.csv"
        rows = [_row(100, 1, 0, 0, mem="inf"), _row(200, 1, 0, 1), _row(900, 1, 0, 4)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match=r"bad\.csv:1: non-finite"):
            list(TraceReplaySpec().replay_google(path))


class TestFixture:
    def test_fixture_parses_with_nothing_dropped(self, tmp_path):
        path = tmp_path / "events.csv"
        totals = generate_google_fixture(path, 400, seed=5)
        stats = {}
        tasks = list(iter_google_tasks(path, stats=stats))
        assert len(tasks) == 400
        assert totals["jobs"] == 400
        assert stats["dropped_open"] == 0
        assert stats["dropped_unscheduled"] == 0
        submits = [t.submit_us for t in tasks]
        assert submits == sorted(submits)

    def test_fixture_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_google_fixture(a, 120, seed=3)
        generate_google_fixture(b, 120, seed=3)
        assert a.read_bytes() == b.read_bytes()
