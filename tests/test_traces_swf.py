"""SWF adapter: canonical formatting round-trips and error paths."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workload.traces import (
    SWFJob,
    TraceReplaySpec,
    format_swf_job,
    generate_swf_fixture,
    iter_swf_jobs,
    read_swf,
    write_swf,
)

# Field strategies mirror the SWF spec: integer fields take -1 (missing)
# or small non-negative values; float-capable fields may carry decimals.
_int_field = st.integers(min_value=-1, max_value=10**6)
_float_field = st.one_of(
    st.just(-1),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def swf_jobs(draw, number=None):
    return SWFJob(
        job_number=number if number is not None else draw(st.integers(1, 10**6)),
        submit_time=draw(_int_field),
        wait_time=draw(_float_field),
        run_time=draw(_float_field),
        allocated_procs=draw(_int_field),
        avg_cpu_time=draw(_float_field),
        used_memory_kb=draw(_float_field),
        requested_procs=draw(_int_field),
        requested_time=draw(_int_field),
        requested_memory_kb=draw(_float_field),
        status=draw(st.integers(-1, 5)),
        user_id=draw(_int_field),
        group_id=draw(_int_field),
        executable=draw(_int_field),
        queue=draw(_int_field),
        partition=draw(_int_field),
        preceding_job=draw(_int_field),
        think_time=draw(_int_field),
    )


class TestRoundTrip:
    @given(st.lists(swf_jobs(), min_size=0, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_write_parse_write_is_byte_identical(self, jobs):
        """Canonical output is a fixed point: format -> parse -> format."""
        first = io.StringIO()
        write_swf(first, jobs, comments=("; generated",))
        reparsed = list(iter_swf_jobs(io.StringIO(first.getvalue())))
        second = io.StringIO()
        write_swf(second, reparsed, comments=("; generated",))
        assert first.getvalue() == second.getvalue()

    @given(swf_jobs())
    @settings(max_examples=60, deadline=None)
    def test_single_line_round_trip(self, job):
        line = format_swf_job(job)
        (parsed,) = iter_swf_jobs(io.StringIO(line + "\n"))
        assert format_swf_job(parsed) == line

    def test_read_swf_preserves_comments_verbatim(self, tmp_path):
        path = tmp_path / "t.swf"
        comments = ("; Computer: somewhere", "; UnixStartTime: 0")
        write_swf(path, [SWFJob(*([1] * 18))], comments)
        got_comments, jobs = read_swf(path)
        assert tuple(got_comments) == comments
        assert len(jobs) == 1

    def test_write_swf_prefixes_bare_comments(self, tmp_path):
        path = tmp_path / "t.swf"
        write_swf(path, [], comments=("bare note",))
        comments, _ = read_swf(path)
        assert comments == ["; bare note"]


def _reference_field(value):
    """One field by the per-field rule: ints by ``str``, integral floats
    under 1e16 as ints, every other float by ``repr``."""
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


_EDGE_FLOATS = (
    1e16, -1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
    -math.nextafter(1e16, 0.0), 0.0, -0.0, 5e-324, -5e-324, 3.0, 2.5,
)
_any_field = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from((math.inf, -math.inf, math.nan)),
)


class TestFormatter:
    @given(st.lists(_any_field, min_size=18, max_size=18))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_field_reference(self, values):
        expected = " ".join(map(_reference_field, values))
        assert format_swf_job(SWFJob(*values)) == expected

    def test_write_swf_writes_integral_floats_as_ints(self):
        values = [7, 3.0, -1.0, 3.0, 2, -0.0, 1e15, 2, 4.5, 1e16, 1, 3, 3, 1, 0, 1, -1, 3.0]
        out = io.StringIO()
        assert write_swf(out, [SWFJob(*values)]) == 1
        assert out.getvalue() == "7 3 -1 3 2 0 1000000000000000 2 4.5 1e+16 1 3 3 1 0 1 -1 3\n"


class TestErrors:
    def test_short_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text("; header\n1 2 3\n", encoding="utf-8")
        with pytest.raises(TraceError, match=r"bad\.swf:2: .*3 fields, expected 18"):
            list(iter_swf_jobs(path))

    def test_long_line_rejected(self):
        line = " ".join(["1"] * 19)
        with pytest.raises(TraceError, match="19 fields"):
            list(iter_swf_jobs(io.StringIO(line + "\n")))

    def test_non_numeric_field_rejected(self):
        fields = ["1"] * 18
        fields[3] = "banana"
        with pytest.raises(TraceError, match="banana"):
            list(iter_swf_jobs(io.StringIO(" ".join(fields) + "\n")))

    @pytest.mark.parametrize("column, token", [(3, "1e999"), (1, "-1e999"), (6, "2.5E400")])
    def test_non_finite_value_names_file_and_line(self, tmp_path, column, token):
        fields = ["1"] * 18
        fields[column] = token
        path = tmp_path / "bad.swf"
        path.write_text("; header\n" + " ".join(fields) + "\n", encoding="utf-8")
        with pytest.raises(
            TraceError, match=rf"bad\.swf:2: non-finite SWF field {column + 1} "
        ):
            list(iter_swf_jobs(path))

    @pytest.mark.parametrize(
        "column, token, message",
        [
            # An infinite run time used to replay as runtime_minutes=inf.
            (3, "1e999", "non-finite SWF field 4"),
            # Integers too large for a float pass the parse; submit time,
            # run time, processors and memory then used to raise a bare
            # OverflowError when the replay turned them into minutes or GB.
            (1, "1" + "0" * 400, "SWF value out of float range"),
            (3, "1" + "0" * 400, "SWF value out of float range"),
            (4, "1" + "0" * 400, "SWF value out of float range"),
            (6, "1" + "0" * 400, "SWF value out of float range"),
        ],
    )
    def test_unrepresentable_value_is_not_replayed(self, tmp_path, column, token, message):
        fields = ["1"] * 18
        fields[column] = token
        path = tmp_path / "bad.swf"
        path.write_text("; header\n" + " ".join(fields) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match=rf"bad\.swf:2: {message}"):
            list(TraceReplaySpec().replay_swf(path))

    @pytest.mark.parametrize(
        "times",
        [
            # Submit, schedule and finish all past float range, one
            # minute of runtime: the submit minute used to raise a bare
            # OverflowError.
            (str(10**400), str(10**400), str(10**400 + 60_000_000)),
            # Only the finish is: the runtime minutes used to.
            ("0", "0", str(10**400)),
        ],
    )
    def test_unrepresentable_google_timestamp_is_not_replayed(self, tmp_path, times):
        # task_events rows: submit (0), schedule (1), finish (4).
        rows = [
            f"{ts},,7,0,,{event},u0,0,0,0.1,0.1,,"
            for ts, event in zip(times, (0, 1, 4))
        ]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(
            TraceError, match=r"bad\.csv:3: task_events value out of float range"
        ):
            list(TraceReplaySpec().replay_google(path))

    def test_blank_lines_and_comments_skipped(self):
        text = ";c\n\n   \n" + " ".join(["7"] * 18) + "\n"
        jobs = list(iter_swf_jobs(io.StringIO(text)))
        assert [j.job_number for j in jobs] == [7]


class TestFixture:
    def test_fixture_is_deterministic_and_parseable(self, tmp_path):
        a, b = tmp_path / "a.swf", tmp_path / "b.swf"
        totals = generate_swf_fixture(a, 300, seed=9)
        generate_swf_fixture(b, 300, seed=9)
        assert a.read_bytes() == b.read_bytes()
        assert totals["jobs"] == 300
        jobs = list(iter_swf_jobs(a))
        assert len(jobs) == 300
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_fixture_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a.swf", tmp_path / "b.swf"
        generate_swf_fixture(a, 100, seed=1)
        generate_swf_fixture(b, 100, seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_fixture_round_trips_byte_identically(self, tmp_path):
        path = tmp_path / "f.swf"
        generate_swf_fixture(path, 150, seed=3)
        comments, jobs = read_swf(path)
        rewritten = tmp_path / "g.swf"
        write_swf(rewritten, jobs, comments)
        assert path.read_bytes() == rewritten.read_bytes()
