"""Tests for the telemetry subsystem (registry, hooks, exporters, progress)."""

import io
import json
import time

import pytest

import repro
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.observer import EventLog
from repro.telemetry import (
    CELLS_FILENAME,
    DEFAULT_DURATION_BUCKETS,
    Instrumentation,
    MetricsRegistry,
    NO_INSTRUMENTATION,
    ProgressReporter,
    load_telemetry_dir,
    parse_prometheus,
    read_cells_jsonl,
    read_jsonl_snapshot,
    render_stats,
    to_prometheus,
    write_cells_jsonl,
    write_telemetry_dir,
)

from conftest import make_cluster, make_job, make_trace


def run_smoke(scenario, instrumentation=None):
    return repro.simulate(scenario, "ResSusUtil", instrumentation=instrumentation)


def _churn(job_failure_probability=0.05, **extra):
    from repro.faults import FaultConfig, MachineChurn
    from repro.workload.distributions import Exponential

    return FaultConfig(
        machine_churn=MachineChurn(mtbf=Exponential(3000.0), mttr=Exponential(60.0)),
        job_failure_probability=job_failure_probability,
        **extra,
    )


def _outage(scenario):
    from repro.faults import FaultConfig, PoolOutage

    first = scenario.cluster.pool_ids[0]
    return FaultConfig(
        pool_outages=(PoolOutage(first, 600.0, 500.0), PoolOutage(first, 2580.0, 300.0))
    )


def _cell(name, scenario):
    """(policy, fault config) of one named smoke cell."""
    from repro.core.policies import DuplicateSuspended, MigrateSuspended
    from repro.core.selectors import LowestUtilizationSelector
    from repro.faults import NO_FAULTS, RetryPolicy

    if name == "plain":
        return "ResSusUtil", NO_FAULTS
    if name == "rswu+outage":
        return "ResSusWaitUtil", _outage(scenario)
    if name == "dup+outage":
        return DuplicateSuspended(LowestUtilizationSelector()), _outage(scenario)
    if name == "dup+give-up":
        # Every failure is final, so members of live pairs give up.
        return DuplicateSuspended(LowestUtilizationSelector()), _churn(
            job_failure_probability=0.3, retry=RetryPolicy(max_attempts=1)
        )
    if name == "migrate+churn":
        return MigrateSuspended(LowestUtilizationSelector()), _churn()
    if name == "dfrs+outage":
        return repro.FractionalSharePolicy(), _outage(scenario)
    raise KeyError(name)


def run_cell(scenario, name, instrumentation=None):
    policy, faults = _cell(name, scenario)
    return repro.simulate(
        scenario,
        policy,
        config=SimulationConfig(strict=False, faults=faults),
        instrumentation=instrumentation,
    )


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        counter = reg.counter("events_total", "events", labelnames=("event",))
        counter.labels(event="submit").inc()
        counter.labels(event="submit").inc()
        counter.labels(event="finish").inc()
        gauge = reg.gauge("depth", "queue depth")
        gauge.set(4.0)
        hist = reg.histogram("wait_minutes", "wait times", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert counter.labels(event="submit").value == 2
        assert counter.labels(event="finish").value == 1
        assert gauge.value == 4.0
        series = hist.labels()
        assert series.count == 3
        assert series.sum == pytest.approx(105.5)
        # +Inf overflow slot catches the out-of-range observation
        assert series.cumulative()[-1] == (float("inf"), 3)

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "a counter")
        with pytest.raises(ConfigurationError):
            reg.gauge("x", "now a gauge")

    def test_create_is_idempotent(self):
        reg = MetricsRegistry()
        first = reg.counter("x", "a counter")
        assert reg.counter("x", "a counter") is first


class TestInstrumentation:
    def test_default_is_disabled(self):
        assert not NO_INSTRUMENTATION.enabled
        assert not Instrumentation().enabled

    def test_enabled_variants(self):
        assert Instrumentation(metrics=MetricsRegistry()).enabled
        assert Instrumentation(observers=(EventLog(),)).enabled
        assert Instrumentation(profile=True).enabled

    def test_rejects_non_observer(self):
        with pytest.raises(ConfigurationError):
            Instrumentation(observers=(object(),))


class TestDeterminism:
    @pytest.mark.parametrize(
        "cell", ["plain", "rswu+outage", "dup+outage", "migrate+churn"]
    )
    def test_result_identical_with_and_without_telemetry(self, smoke_scenario, cell):
        plain = run_cell(smoke_scenario, cell)
        reg = MetricsRegistry()
        observed = run_cell(
            smoke_scenario,
            cell,
            Instrumentation(
                observers=(EventLog(),), metrics=reg, profile=True
            ),
        )
        assert plain.records == observed.records
        assert plain.samples == observed.samples
        # and the registry actually saw the run
        events = reg.get("repro_sim_events_total")
        assert events.labels(event="submit").value == len(smoke_scenario.trace)

    def test_serial_and_parallel_results_match_with_progress(self, smoke_scenario):
        sink = io.StringIO()
        serial = repro.run_experiment(
            smoke_scenario, ["NoRes", "ResSusUtil"], n_workers=1
        )
        parallel = repro.run_experiment(
            smoke_scenario,
            ["NoRes", "ResSusUtil"],
            n_workers=2,
            progress=ProgressReporter(stream=sink),
        )
        assert [c.summary for c in serial] == [c.summary for c in parallel]
        assert "2/2 cells" in sink.getvalue()


class TestEngineMetrics:
    def test_wait_histogram_counts_queue_episodes(self):
        from repro.workload.cluster import ClusterSpec

        from conftest import make_pool

        cluster = ClusterSpec([make_pool("p0", 1, cores=1)])
        jobs = [
            make_job(0, runtime=10.0),
            make_job(1, submit=1.0, runtime=5.0),
        ]
        reg = MetricsRegistry()
        repro.run_simulation(
            make_trace(jobs),
            cluster,
            config=SimulationConfig(
                strict=False, instrumentation=Instrumentation(metrics=reg)
            ),
        )
        assert reg.get("repro_sim_events_total").labels(event="queue").value == 1
        wait = reg.get("repro_wait_duration_minutes").labels(pool="p0")
        assert wait.count == 1
        assert wait.sum == pytest.approx(9.0)  # queued at 1.0, started at 10.0

    @pytest.mark.parametrize(
        "cell", ["dup+outage", "migrate+churn", "dfrs+outage", "rswu+outage", "dup+give-up"]
    )
    def test_every_episode_closes(self, smoke_scenario, cell):
        log = EventLog()
        reg = MetricsRegistry()
        run_cell(smoke_scenario, cell, Instrumentation(observers=(log,), metrics=reg))
        counts = log.counts()
        for family, opening in (
            ("repro_wait_duration_minutes", "queue"),
            ("repro_suspension_duration_minutes", "suspend"),
        ):
            observed = sum(series.count for _, series in reg.get(family).series())
            assert observed == counts[opening] > 0
        if cell == "dup+give-up":
            # The cell must reach a give-up by a member of a live pair.
            partners, pair_give_ups = {}, 0
            for event in log.events:
                if event.event == "duplicate":
                    shadow = int(event.detail.split("=")[1])
                    partners[event.job_id], partners[shadow] = shadow, event.job_id
                elif event.event in ("finish", "fault-give-up"):
                    partner = partners.pop(event.job_id, None)
                    if partner is not None:
                        del partners[partner]
                        pair_give_ups += event.event == "fault-give-up"
            assert pair_give_ups > 0

    def test_series_lookups_scale_with_pools_not_ticks(self, monkeypatch):
        from repro.telemetry import registry as registry_mod

        real = registry_mod._Metric.labels
        calls = [0]

        def counting(metric, *values, **kwargs):
            calls[0] += 1
            return real(metric, *values, **kwargs)

        monkeypatch.setattr(registry_mod._Metric, "labels", counting)
        # Every job is pinned to p0 and queues there, so extra pools
        # change no event, only the number of per-pool series.
        jobs = [
            make_job(i, submit=float(3 * i), runtime=40.0, cores=4, candidate_pools=("p0",))
            for i in range(8)
        ]

        def lookups(n_pools, interval):
            cluster = make_cluster(tuple((f"p{i}", 1) for i in range(n_pools)))
            reg = MetricsRegistry()
            calls[0] = 0
            repro.run_simulation(
                make_trace(jobs),
                cluster,
                config=SimulationConfig(
                    strict=False,
                    sample_interval=interval,
                    instrumentation=Instrumentation(metrics=reg),
                ),
            )
            return calls[0], reg.get("repro_sim_samples_total").value

        base, ticks = lookups(2, 1.0)
        finer, finer_ticks = lookups(2, 0.25)
        assert finer_ticks >= 4 * ticks - 3
        assert finer == base
        per_pool = lookups(4, 1.0)[0] - base
        assert per_pool > 0
        assert lookups(6, 1.0)[0] - base == 2 * per_pool

    def test_sampled_metrics_update_once_per_sample_event(self, monkeypatch, smoke_scenario):
        from repro.telemetry.hooks import EngineTelemetry

        real = EngineTelemetry.on_sample
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(EngineTelemetry, "on_sample", counting)
        reg = MetricsRegistry()
        result = run_smoke(smoke_scenario, Instrumentation(metrics=reg))
        events = reg.get("repro_engine_queue_events_total").labels("sample").value
        ticks = reg.get("repro_sim_samples_total").value
        # Idle ticks are coalesced, so a stretch of ticks shares one
        # sample event and one telemetry update; the counter still
        # advances by every tick.
        assert calls[0] == events
        assert ticks == len(result.samples) > events

    def test_profile_report_available(self, smoke_scenario):
        from repro.simulator.engine import SimulationEngine

        engine = SimulationEngine(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            config=SimulationConfig(
                strict=False, instrumentation=Instrumentation(profile=True)
            ),
        )
        started = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - started
        report = engine.profile_report()
        assert report is not None
        layers = {stats.layer: stats for stats in report.layers}
        assert layers["vpm.submit"].calls == len(smoke_scenario.trace)
        assert layers["sink.add_record"].calls == len(smoke_scenario.trace)
        for name in ("events.pop", "pool.fill_machine", "waitq.best_schedulable"):
            assert layers[name].calls > 0
        assert layers["engine.self"].calls == 1
        total = sum(stats.self_seconds for stats in report.layers)
        assert total == pytest.approx(report.wall_seconds)
        assert total == pytest.approx(wall, rel=0.05)
        assert "pool.fill_machine" in report.render()

    def test_failed_profiled_run_tears_down(self, smoke_scenario):
        from repro.simulator.engine import SimulationEngine
        from repro.simulator.pool import PhysicalPool

        fill_machine = PhysicalPool.__dict__["fill_machine"]

        class Closable(EventLog):
            closed = False

            def close(self):
                self.closed = True

        log = Closable()
        engine = SimulationEngine(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            config=SimulationConfig(
                strict=False,
                max_minutes=50.0,
                instrumentation=Instrumentation(
                    observers=(log,), metrics=MetricsRegistry(), profile=True
                ),
            ),
        )
        with pytest.raises(SimulationError):
            engine.run()
        assert PhysicalPool.__dict__["fill_machine"] is fill_machine
        assert log.closed
        assert engine.profile_report().wall_seconds > 0.0
        with pytest.raises(SimulationError, match="single-use"):
            engine.run()

    def test_profiler_times_only_its_own_engine(self, smoke_scenario):
        from contextlib import ExitStack

        from repro.simulator.engine import SimulationEngine
        from repro.telemetry import LayerProfiler

        def build():
            return SimulationEngine(
                smoke_scenario.trace,
                smoke_scenario.cluster,
                policy=repro.res_sus_util(),
                config=SimulationConfig(strict=False),
            )

        plain = build().run()
        profiler = LayerProfiler()
        with ExitStack() as stack:
            profiler.attach(build(), stack)
            # an unprofiled engine runs while the class wrappers are in
            other = build().run()
        assert other.records == plain.records
        assert other.samples == plain.samples
        assert all(
            stats.calls == 0
            for stats in profiler.report().layers
            if stats.layer != "engine.self"
        )


class TestExporters:
    def _populated_registry(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_sim_events_total", "events", labelnames=("event",)
        ).labels(event="submit").inc(3)
        reg.gauge("repro_jobs_outstanding", "outstanding").set(2)
        reg.histogram(
            "repro_wait_duration_minutes",
            "waits",
            labelnames=("pool",),
            buckets=(1.0, 10.0),
        ).labels(pool="p0").observe(4.0)
        return reg

    def test_prometheus_round_trip(self):
        reg = self._populated_registry()
        text = to_prometheus(reg)
        assert "# TYPE repro_sim_events_total counter" in text
        parsed = parse_prometheus(text)
        assert parsed[("repro_sim_events_total", (("event", "submit"),))] == 3
        assert parsed[("repro_jobs_outstanding", ())] == 2
        # histogram exposition: cumulative buckets, sum and count
        assert parsed[("repro_wait_duration_minutes_bucket", (("le", "+Inf"), ("pool", "p0")))] == 1
        assert parsed[("repro_wait_duration_minutes_sum", (("pool", "p0"),))] == 4.0

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._populated_registry()
        prom, jsonl = write_telemetry_dir(reg, tmp_path)
        lines = read_jsonl_snapshot(jsonl)
        by_name = {line["name"]: line for line in lines}
        assert by_name["repro_sim_events_total"]["type"] == "counter"
        assert prom.read_text().startswith("# HELP")

    def test_export_is_deterministic(self, smoke_scenario):
        texts = []
        for _ in range(2):
            reg = MetricsRegistry()
            run_smoke(smoke_scenario, Instrumentation(metrics=reg))
            texts.append(to_prometheus(reg))
        assert texts[0] == texts[1]

    def test_load_telemetry_dir_and_render(self, tmp_path, smoke_scenario):
        reg = MetricsRegistry()
        run_smoke(smoke_scenario, Instrumentation(metrics=reg))
        write_telemetry_dir(reg, tmp_path)
        stats = load_telemetry_dir(tmp_path)
        assert stats.value("repro_sim_events_total", event="submit") == len(
            smoke_scenario.trace
        )
        rendered = render_stats(stats)
        assert "event counters" in rendered
        assert "per-pool gauges" in rendered

    def test_load_empty_dir_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_telemetry_dir(tmp_path)


class TestFanOut:
    def test_multiple_observers_in_order(self):
        calls = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                calls.append((self.tag, event.event, event.job_id))

        first, second = Recorder("a"), Recorder("b")
        repro.run_simulation(
            make_trace([make_job(0, runtime=5.0)]),
            make_cluster(),
            config=SimulationConfig(
                strict=False,
                instrumentation=Instrumentation(observers=(first, second)),
            ),
        )
        kinds = [c[1] for c in calls if c[0] == "a"]
        assert kinds == ["submit", "start", "finish"]
        # fan-out preserves registration order for every event
        assert calls[0::2] == [("a", k, 0) for k in kinds]
        assert calls[1::2] == [("b", k, 0) for k in kinds]


class TestRemovedObserverKeyword:
    def test_observer_keyword_raises_with_migration_hint(self):
        with pytest.raises(ConfigurationError, match="Instrumentation\\(observers="):
            SimulationConfig(strict=False, observer=EventLog())

    def test_instrumentation_is_the_replacement(self):
        log = EventLog()
        config = SimulationConfig(
            strict=False, instrumentation=Instrumentation(observers=(log,))
        )
        repro.run_simulation(
            make_trace([make_job(0, runtime=5.0)]), make_cluster(), config=config
        )
        assert [e.event for e in log.events] == ["submit", "start", "finish"]


class TestProgress:
    class _Outcome:
        def __init__(self, from_cache=False, wall=1.0):
            self.from_cache = from_cache
            self.wall_seconds = wall

    def test_heartbeat_shows_eta_and_cache(self):
        sink = io.StringIO()
        ticks = iter(range(100))
        reporter = ProgressReporter(stream=sink, clock=lambda: float(next(ticks)))
        reporter.add_total(2)
        reporter(self._Outcome(from_cache=True))
        reporter(self._Outcome())
        lines = sink.getvalue().splitlines()
        assert "1/2 cells (1 cached)" in lines[0]
        assert "eta" in lines[0]
        assert "2/2 cells (1 cached)" in lines[1]

    def test_min_interval_suppresses_but_final_prints(self):
        sink = io.StringIO()
        ticks = iter([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        reporter = ProgressReporter(
            stream=sink, min_interval_seconds=1000.0, clock=lambda: next(ticks)
        )
        reporter.add_total(3)
        reporter(self._Outcome())
        reporter(self._Outcome())
        reporter(self._Outcome())
        lines = sink.getvalue().splitlines()
        # first heartbeat and the final cell print; the middle one is
        # suppressed by the interval
        assert len(lines) == 2
        assert "1/3 cells" in lines[0]
        assert "3/3 cells" in lines[1]

    def test_cells_jsonl_round_trip(self, tmp_path, smoke_scenario):
        cells = repro.run_experiment(smoke_scenario, ["NoRes"])
        path = write_cells_jsonl(cells, tmp_path)
        assert path.name == CELLS_FILENAME
        (record,) = read_cells_jsonl(path)
        assert record["policy"] == "NoRes"
        assert record["scenario"] == smoke_scenario.name
        assert json.dumps(record)  # plain JSON-serializable dict
