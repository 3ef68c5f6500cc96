"""Tests for the stable top-level facade (repro.simulate / run_experiment)."""

import pytest

import repro
from repro.errors import ConfigurationError, UnknownPolicyError
from repro.simulator.config import SimulationConfig
from repro.telemetry import Instrumentation, MetricsRegistry


class TestExports:
    def test_facade_in_all(self):
        assert "simulate" in repro.__all__
        assert "run_experiment" in repro.__all__
        assert "Instrumentation" in repro.__all__
        assert "MetricsRegistry" in repro.__all__

    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert not missing


class TestSimulate:
    def test_default_policy_is_baseline(self, smoke_scenario):
        result = repro.simulate(smoke_scenario)
        reference = repro.run_simulation(
            smoke_scenario.trace,
            smoke_scenario.cluster,
            config=SimulationConfig(strict=False),
        )
        assert result.records == reference.records

    def test_policy_by_name_matches_instance(self, smoke_scenario):
        by_name = repro.simulate(smoke_scenario, "ResSusUtil")
        by_instance = repro.simulate(smoke_scenario, repro.res_sus_util())
        assert by_name.records == by_instance.records

    def test_unknown_policy_name_raises(self, smoke_scenario):
        with pytest.raises(UnknownPolicyError):
            repro.simulate(smoke_scenario, "NotAPolicy")

    def test_scheduler_by_name(self, smoke_scenario):
        result = repro.simulate(
            smoke_scenario, "ResSusUtil", initial_scheduler="utilization"
        )
        assert result.records

    def test_instrumentation_keyword(self, smoke_scenario):
        registry = MetricsRegistry()
        repro.simulate(
            smoke_scenario, instrumentation=Instrumentation(metrics=registry)
        )
        submits = registry.get("repro_sim_events_total").labels(event="submit")
        assert submits.value == len(smoke_scenario.trace)

    def test_rejects_instrumentation_in_both_places(self, smoke_scenario):
        instrumented = SimulationConfig(
            strict=False,
            instrumentation=Instrumentation(metrics=MetricsRegistry()),
        )
        with pytest.raises(ConfigurationError):
            repro.simulate(
                smoke_scenario,
                config=instrumented,
                instrumentation=Instrumentation(metrics=MetricsRegistry()),
            )


class TestRunExperiment:
    def test_single_scenario_and_names(self, smoke_scenario):
        cells = repro.run_experiment(smoke_scenario, ["NoRes", "ResSusUtil"])
        assert [c.policy_name for c in cells] == ["NoRes", "ResSusUtil"]
        assert all(c.scenario_name == smoke_scenario.name for c in cells)

    def test_matches_runner(self, smoke_scenario):
        direct = repro.ExperimentRunner().run(
            [smoke_scenario], [repro.no_res, repro.res_sus_util]
        )
        via_facade = repro.run_experiment(
            smoke_scenario, [repro.no_res, repro.res_sus_util]
        )
        assert [c.summary for c in direct] == [c.summary for c in via_facade]

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.run_experiment([], ["NoRes"])

    def test_name_factories_use_scenario_wait_threshold(self, smoke_scenario):
        cells = repro.run_experiment(smoke_scenario, ["ResSusWaitUtil"])
        reference = repro.simulate(
            smoke_scenario,
            repro.res_sus_wait_util(wait_threshold=smoke_scenario.wait_threshold),
        )
        # same policy parameterisation => same summary-level outcome
        assert cells[0].summary.avg_ct_all == pytest.approx(
            repro.summarize(reference).avg_ct_all
        )
