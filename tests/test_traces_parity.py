"""Replay parity: pinned replay digests and the SWF row tokenizer.

The replay digests below were recorded before the SWF reader and the
replay mapping were rewritten for speed; any change to the emitted
``TraceJob`` stream (values, float/int types, order) changes them.  The
tokenizer is also checked against a plain per-field reference parser on
random logs, errors included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.experiments.cache import stable_hash
from repro.workload.cluster import ClusterTemplate
from repro.workload.traces import (
    default_replay_spec,
    generate_google_fixture,
    generate_swf_fixture,
    iter_swf_jobs,
)
from repro.workload.traces.swf import iter_swf_rows

#: ``stable_hash(list(spec.replay(...)))`` for the fixtures built below.
SWF_FIXTURE_DIGEST = (
    "f56376f0df1d70f3b0e441c5b7d1f31b02b604a46f3fb6cd63054cf27e8505a7"
)
GOOGLE_FIXTURE_DIGEST = (
    "1776e41a077373fbeb6127efd6ac2ad749ee88c6b9c28007ee894ff081b57cbc"
)
MIXED_SWF_DIGEST = (
    "4ef029221e77f124e0c2e8e273636cdc494529fcb2a5774cd83bddb619d1adb5"
)
#: SHA-256 of ``generate_swf_fixture(path, 3000, seed=7)``'s bytes.
SWF_FIXTURE_BYTES_SHA256 = (
    "43c10643a144d0fd5beb62e59595769ac533abecd10b4d49b1f3247c09512164"
)
#: The ``totals`` that call returns.
SWF_FIXTURE_TOTALS = {
    "jobs": 3000.0, "horizon_minutes": 1737.1293510518394, "core_minutes": 673741.3999999979,
}
#: SHA-256 of ``generate_google_fixture(path, 2000, seed=7)``'s bytes.
GOOGLE_FIXTURE_BYTES_SHA256 = (
    "2440ce9f6cc7704ca8945f98d0c92adcc81ba0df6d3677072f412a814d5efd1b"
)


def _spec():
    return default_replay_spec(ClusterTemplate(scale=0.25))


def _mixed_swf_text(lines: int, seed: int) -> str:
    """An SWF log whose float-capable columns carry fractional and
    exponent tokens, plus comments, blank lines and ``\\r\\n`` endings."""
    rng = random.Random(seed)

    def real(value: float) -> str:
        roll = rng.random()
        if roll < 0.4:
            return str(int(value))
        if roll < 0.8:
            return f"{value:.3f}"
        return f"{value:.4e}"

    out = ["; mixed-token SWF log", ""]
    submit = 0.0
    for number in range(1, lines + 1):
        submit += rng.expovariate(1 / 40.0)
        run = rng.choice((0, -1, rng.uniform(1, 20_000)))
        cores = rng.choice((-1, 0, 1, 2, 4))
        mem = rng.choice((-1, 0, rng.uniform(1e4, 4e6)))
        fields = [
            str(number), real(submit), "-1", real(run), str(cores), "-1",
            real(mem), str(rng.choice((-1, 1, 3))), real(run * 1.2),
            real(rng.choice((-1, mem, rng.uniform(1e4, 4e6)))), str(rng.choice((0, 1, 5))),
            str(rng.randrange(40)), "1", "7", str(rng.choice((0, 1, 2, 9))),
            "1", "-1", "-1",
        ]
        lead = rng.choice(("", "  ", "\t"))
        end = rng.choice(("\n", "\r\n"))
        out.append(lead + " ".join(fields) + end.rstrip("\n"))
        if rng.random() < 0.05:
            out.append("   ; interleaved comment")
    return "\n".join(out) + "\n"


class TestPinnedReplayDigests:
    def test_swf_fixture_replay(self, tmp_path):
        path = tmp_path / "f.swf"
        assert generate_swf_fixture(path, 3000, seed=7) == SWF_FIXTURE_TOTALS
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SWF_FIXTURE_BYTES_SHA256
        jobs = list(_spec().replay(path, "swf"))
        assert len(jobs) == 3000
        assert stable_hash(jobs) == SWF_FIXTURE_DIGEST

    def test_google_fixture_replay(self, tmp_path):
        path = tmp_path / "f.csv"
        generate_google_fixture(path, 2000, seed=7)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOOGLE_FIXTURE_BYTES_SHA256
        jobs = list(_spec().replay(path, "google"))
        assert len(jobs) == 2000
        assert stable_hash(jobs) == GOOGLE_FIXTURE_DIGEST

    def test_empty_swf_fixture_totals(self, tmp_path):
        totals = generate_swf_fixture(tmp_path / "e.swf", 0, seed=7)
        assert totals == {"jobs": 0.0, "horizon_minutes": 0.0, "core_minutes": 0.0}

    def test_mixed_token_swf_replay(self, tmp_path):
        path = tmp_path / "m.swf"
        path.write_bytes(_mixed_swf_text(1500, seed=3).encode("utf-8"))
        jobs = list(_spec().replay(path, "swf"))
        assert len(jobs) == 485
        assert stable_hash(jobs) == MIXED_SWF_DIGEST


# -- tokenizer vs. a per-field reference parser -------------------------------------

_INT_COLUMNS = frozenset((0, 4, 7, 10, 11, 12, 13, 14, 15, 16))


def _reference_field(token: str, index: int):
    """One SWF field by the per-column rules: integral columns are ints;
    the others are ints unless the token has a ``.`` or an exponent."""
    if index in _INT_COLUMNS:
        return int(token)
    value = float(token)
    if "." not in token and "e" not in token and "E" not in token:
        return int(token)
    return value


def _reference_rows(text: str, name: str = "<swf>"):
    rows = []
    for line_number, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        fields = stripped.split()
        where = f"{name}:{line_number}"
        if len(fields) != 18:
            raise TraceError(f"{where}: SWF line has {len(fields)} fields, expected 18")
        row = []
        for index, token in enumerate(fields):
            try:
                value = _reference_field(token, index)
            except ValueError as exc:
                raise TraceError(f"{where}: non-numeric SWF field ({exc})") from None
            if isinstance(value, float) and not math.isfinite(value):
                raise TraceError(f"{where}: non-finite SWF field {index + 1} ({token!r})")
            row.append(value)
        rows.append(row)
    return rows


def _outcome(parse):
    """``("rows", typed values)`` or ``("error", message)`` for ``parse()``."""
    try:
        rows = parse()
    except TraceError as exc:
        return ("error", str(exc))
    return ("rows", [[(type(v), v) for v in row] for row in rows])


_integral = st.integers(-(10**12), 10**12).map(str)
_fractional = st.builds(
    "{}{}.{}".format,
    st.sampled_from(("", "-", "+")),
    st.sampled_from(("", "0", "7", "12345")),
    st.sampled_from(("", "5", "25", "0001")),
).filter(lambda t: any(c.isdigit() for c in t))
_exponent = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(("1", "-2.5", "3.", ".75", "6")),
    st.sampled_from(("e", "E")),
    st.sampled_from(("", "+", "-")),
    st.sampled_from(("0", "3", "12", "7")),
)
_junk = st.sampled_from(("abc", "0x1F", "nan", "inf", "1,5", "--1", "1.2.3", "e5", "1_000"))
_overflow = st.sampled_from(("1e999", "-2.5E400", "1.0e309"))
_real = st.one_of(_integral, _fractional, _exponent)
_any_token = st.one_of(_integral, _fractional, _exponent, _junk, _overflow)


@st.composite
def _swf_line(draw):
    kind = draw(
        st.sampled_from(
            ("integral", "integral", "integral", "real", "real", "real",
             "noisy", "comment", "blank", "bad count")
        )
    )
    if kind == "comment":
        return draw(st.sampled_from(("", "  ", "\t"))) + "; " + draw(_integral)
    if kind == "blank":
        return draw(st.sampled_from(("", "   ", "\t ")))
    if kind == "bad count":
        count = draw(st.one_of(st.integers(1, 17), st.integers(19, 22)))
        tokens = [draw(_integral) for _ in range(count)]
    elif kind == "integral":  # the fast path
        tokens = [draw(_integral) for _ in range(18)]
    else:
        # Fractions and exponents only where SWF allows them ("real"),
        # or any token in one random column ("noisy").
        tokens = [
            draw(_integral if index in _INT_COLUMNS else _real) for index in range(18)
        ]
        if kind == "noisy":
            tokens[draw(st.integers(0, 17))] = draw(_any_token)
    sep = draw(st.sampled_from((" ", "  ", "\t")))
    return draw(st.sampled_from(("", " ", "\t"))) + sep.join(tokens)


@st.composite
def _swf_text(draw):
    lines = draw(st.lists(_swf_line(), max_size=8))
    endings = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    return "".join(line + end for line, end in zip(lines, endings))


class TestTokenizerMatchesReference:
    @given(_swf_text())
    @settings(max_examples=400, deadline=None)
    def test_rows_and_errors_match(self, text):
        expected = _outcome(lambda: _reference_rows(text))
        assert _outcome(lambda: list(iter_swf_rows(io.StringIO(text)))) == expected
        assert _outcome(
            lambda: [dataclasses.astuple(job) for job in iter_swf_jobs(io.StringIO(text))]
        ) == expected

    @pytest.mark.parametrize(
        "column, token, message",
        [
            (0, "1.5", "non-numeric SWF field (invalid literal for int() with base 10: '1.5')"),
            (3, "banana", "non-numeric SWF field (could not convert string to float: 'banana')"),
            (3, "nan", "non-numeric SWF field (invalid literal for int() with base 10: 'nan')"),
            (3, "1e999", "non-finite SWF field 4 ('1e999')"),
        ],
    )
    def test_error_messages_name_file_and_line(self, tmp_path, column, token, message):
        fields = ["1"] * 18
        fields[column] = token
        path = tmp_path / "t.swf"
        path.write_text("; header\n\n" + " ".join(fields) + "\n", encoding="utf-8")
        for parse in (iter_swf_rows, iter_swf_jobs):
            with pytest.raises(TraceError) as info:
                list(parse(path))
            assert str(info.value) == f"{path}:3: {message}"
