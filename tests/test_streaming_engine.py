"""Streaming engine path: equivalence with the materialized path."""

from __future__ import annotations

import pytest

import repro
from repro.errors import SimulationError
from repro.faults import FaultConfig, MachineChurn
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.telemetry import Instrumentation, MetricsRegistry, to_prometheus
from repro.workload.distributions import Exponential
from repro.workload.traces import TraceReplaySpec, default_replay_spec, generate_swf_fixture

from conftest import make_cluster, make_job, make_trace


class TestEquivalence:
    def test_streaming_matches_materialized_records(self):
        jobs = [
            make_job(i, submit=i * 2.0, runtime=20.0 + (i % 5) * 7,
                     priority=(0, 100)[i % 2], cores=1 + i % 3)
            for i in range(60)
        ]
        materialized = repro.run_simulation(make_trace(jobs), make_cluster())
        sink = repro.OnlineResults(keep_samples=True)
        streamed = repro.run_streaming(iter(jobs), make_cluster(), sink=sink)
        assert streamed.summary() == repro.summarize(materialized)
        assert len(streamed.samples) == len(materialized.samples)

    def test_streaming_matches_under_faults(self):
        jobs = [make_job(i, submit=i * 3.0, runtime=30.0) for i in range(40)]
        config = SimulationConfig(
            faults=FaultConfig(
                machine_churn=MachineChurn(
                    mtbf=Exponential(200.0), mttr=Exponential(15.0)
                )
            )
        )
        materialized = repro.run_simulation(
            make_trace(jobs), make_cluster(), config=config
        )
        streamed = repro.run_streaming(iter(jobs), make_cluster(), config=config)
        assert streamed.summary() == repro.summarize(materialized)

    def test_replay_feed_drives_the_engine_end_to_end(self, tmp_path):
        path = tmp_path / "t.swf"
        generate_swf_fixture(path, 400, seed=6, target_cores=60)
        template = repro.ClusterTemplate(scale=0.02)
        cluster = template.build(repro.RandomStreams(2010))
        spec = default_replay_spec(template)
        sink = repro.run_streaming(spec.replay(path, "swf"), cluster)
        summary = sink.summary()
        assert summary.job_count > 0
        assert summary.completed_count + summary.rejected_count <= summary.job_count
        # Replaying the identical feed is bit-identical.
        again = repro.run_streaming(
            default_replay_spec(template).replay(path, "swf"),
            template.build(repro.RandomStreams(2010)),
        )
        assert again.summary() == summary


class TestFeedValidation:
    def test_unsorted_feed_raises(self):
        jobs = [make_job(0, submit=50.0), make_job(1, submit=10.0)]
        with pytest.raises(SimulationError, match="not sorted"):
            repro.run_streaming(iter(jobs), make_cluster())

    def test_empty_feed_finalizes_cleanly(self):
        sink = repro.run_streaming(iter(()), make_cluster())
        summary = sink.summary()
        assert summary.job_count == 0
        assert summary.completed_count == 0

    def test_quantized_replay_bounds_engine_caches(self):
        # The constant-memory contract end to end: feed many jobs with
        # near-unique raw memory through a quantizing spec and check the
        # cluster's eligibility index stays small.
        import io

        from repro.workload.traces.swf import SWFJob, write_swf

        raw = [
            SWFJob(
                job_number=i, submit_time=i * 30, wait_time=-1, run_time=300,
                allocated_procs=1, avg_cpu_time=-1, used_memory_kb=900_000 + i,
                requested_procs=1, requested_time=300,
                requested_memory_kb=900_000 + i, status=1, user_id=i % 8,
                group_id=0, executable=1, queue=0, partition=1,
                preceding_job=-1, think_time=-1,
            )
            for i in range(1, 501)
        ]
        buffer = io.StringIO()
        write_swf(buffer, raw)
        feed = TraceReplaySpec().replay_swf(io.StringIO(buffer.getvalue()))
        cluster = make_cluster()
        engine = SimulationEngine(iter(feed), cluster)
        engine.run()
        # Signature keys are (os, cores, memory); whitelisted lookups
        # add the whitelist.
        keys = list(cluster.eligibility._entries)
        assert sum(len(key) == 3 for key in keys) <= 4
        assert sum(len(key) == 4 for key in keys) <= 4


class TestInstrumentedFeed:
    """Metrics count handlers and the profiler times layers, whatever the input shape."""

    @staticmethod
    def _run(trace_input, scenario, faults):
        registry = MetricsRegistry()
        extra = {}
        if faults:
            extra["faults"] = FaultConfig(
                machine_churn=MachineChurn(
                    mtbf=Exponential(3000.0), mttr=Exponential(60.0)
                ),
                job_failure_probability=0.05,
            )
        engine = SimulationEngine(
            trace_input,
            scenario.cluster,
            policy=repro.res_sus_wait_util(),
            config=SimulationConfig(
                strict=False,
                instrumentation=Instrumentation(metrics=registry, profile=True),
                **extra,
            ),
        )
        result = engine.run()
        # Wall-clock metrics differ run to run; everything else is exact.
        lines = [
            line
            for line in to_prometheus(registry).splitlines()
            if "second" not in line.split("{")[0].split(" ")[0]
        ]
        counts = {s.layer: s.calls for s in engine.profile_report().layers}
        return result, lines, counts

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    def test_trace_and_iterator_report_the_same_run(self, smoke_scenario, faults):
        trace = smoke_scenario.trace
        materialized, trace_lines, trace_counts = self._run(
            trace, smoke_scenario, faults
        )
        streamed, feed_lines, feed_counts = self._run(
            iter(trace), smoke_scenario, faults
        )
        assert streamed.records == materialized.records
        assert feed_lines == trace_lines
        assert any(line.startswith("repro_engine_queue_events_total") for line in feed_lines)
        assert feed_counts == trace_counts
        assert feed_counts["vpm.submit"] >= len(trace)  # retries resubmit
        assert feed_counts["sink.add_record"] == len(trace)
        assert feed_counts["pool.fill_machine"] > 0
        if faults:
            assert any(
                line.startswith('repro_engine_queue_events_total{kind="machine-crash"}')
                for line in feed_lines
            )
