"""OnlineResults: streaming aggregates vs materialized summarize()."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.simulator.config import SimulationConfig
from repro.simulator.online import StreamingHistogram

from conftest import make_cluster, make_job, make_trace


def _mid_size_trace():
    """A few hundred deterministic jobs spanning priorities and sizes."""
    jobs = []
    for i in range(300):
        jobs.append(
            make_job(
                i,
                submit=i * 0.7,
                runtime=5.0 + (i % 37) * 1.3,
                priority=(0, 50, 100)[i % 3],
                cores=1 + (i % 4),
                memory_gb=1.0 + (i % 3),
            )
        )
    # A statically impossible job exercises the rejected path.
    jobs.append(make_job(300, submit=10.0, runtime=5.0, cores=64))
    jobs.sort(key=lambda j: j.submit_minute)
    return make_trace(
        [dataclasses.replace(j, job_id=k) for k, j in enumerate(jobs)]
    )


class TestSummaryEquality:
    @pytest.mark.parametrize("policy_name", [None, "ResSusUtil"])
    def test_streaming_summary_is_bit_identical(self, policy_name):
        from repro.policies import policy_from_spec

        trace = _mid_size_trace()
        cluster = make_cluster((("p0", 3), ("p1", 3), ("p2", 2)))
        config = SimulationConfig(strict=False)  # the 64-core job rejects
        policy = policy_from_spec(policy_name) if policy_name else None
        materialized = repro.summarize(
            repro.run_simulation(trace, cluster, policy=policy, config=config)
        )
        policy2 = policy_from_spec(policy_name) if policy_name else None
        streamed = repro.run_streaming(
            iter(trace.jobs), cluster, policy=policy2, config=config
        ).summary()
        assert streamed == materialized

    def test_rejected_jobs_are_counted_not_leaked(self):
        trace = _mid_size_trace()
        cluster = make_cluster()
        sink = repro.run_streaming(
            iter(trace.jobs), cluster, config=SimulationConfig(strict=False)
        )
        assert sink.rejected_count == sink.summary().rejected_count
        assert sink.summary().rejected_count >= 1
        assert sink.summary().job_count == len(trace.jobs)


class TestStreamingHistogram:
    def test_counts_and_mean(self):
        hist = StreamingHistogram(edges=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            hist.add(v)
        assert sum(hist.counts) == 4
        assert hist.counts == (1, 1, 1, 1)
        assert hist.mean() == pytest.approx(138.875)
        assert hist.minimum == 0.5
        assert hist.maximum == 500.0

    def test_quantile_is_monotone(self):
        hist = StreamingHistogram()
        for v in range(1, 1000):
            hist.add(float(v))
        q50 = hist.quantile(0.5)
        q90 = hist.quantile(0.9)
        q99 = hist.quantile(0.99)
        assert q50 <= q90 <= q99

    def test_render_mentions_label_and_counts(self):
        hist = StreamingHistogram()
        hist.add(5.0)
        rendered = hist.render("completion minutes")
        assert rendered.startswith("completion minutes: n=1")

    def test_bad_edges_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            StreamingHistogram(edges=(5.0, 1.0))
