"""The exception hierarchy contract: one catchable base, typed attributes.

Callers are promised that every intentional error derives from
:class:`repro.errors.ReproError` and that the structured errors carry
the attributes their docstrings advertise — these tests pin both.
"""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.ConfigurationError,
    errors.TraceError,
    errors.ClusterError,
    errors.SimulationError,
    errors.SchedulingError,
    errors.JobStateError,
    errors.UnschedulableJobError,
    errors.UnknownPoolError,
    errors.UnknownPolicyError,
    errors.ExperimentExecutionError,
    errors.WorkerDied,
    errors.CacheError,
]


class TestHierarchy:
    @pytest.mark.parametrize("exc_type", ALL_ERRORS)
    def test_every_error_derives_from_repro_error(self, exc_type):
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)

    def test_engine_errors_are_simulation_errors(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)
        assert issubclass(errors.JobStateError, errors.SimulationError)

    def test_module_exports_match_hierarchy(self):
        public = [
            name
            for name in dir(errors)
            if isinstance(getattr(errors, name), type)
            and issubclass(getattr(errors, name), Exception)
        ]
        for name in public:
            assert issubclass(getattr(errors, name), errors.ReproError) or getattr(
                errors, name
            ) is errors.ReproError


class TestStructuredAttributes:
    def test_job_state_error(self):
        exc = errors.JobStateError(7, "SUSPENDED", "finish")
        assert exc.job_id == 7
        assert exc.current == "SUSPENDED"
        assert exc.attempted == "finish"
        assert "job 7" in str(exc)
        assert "'finish'" in str(exc)
        assert "'SUSPENDED'" in str(exc)

    def test_unschedulable_job_error(self):
        exc = errors.UnschedulableJobError(3, detail="needs 99 cores")
        assert exc.job_id == 3
        assert "needs 99 cores" in str(exc)
        assert "job 3" in str(exc)

    def test_unknown_pool_error(self):
        exc = errors.UnknownPoolError("pNaN")
        assert exc.pool_id == "pNaN"
        assert "'pNaN'" in str(exc)

    def test_unknown_policy_error_lists_known(self):
        exc = errors.UnknownPolicyError("Bogus", known=("NoRes", "ResSusUtil"))
        assert exc.name == "Bogus"
        assert "NoRes" in str(exc)
        assert "ResSusUtil" in str(exc)

    def test_experiment_execution_error_names_the_cell(self):
        cause = ValueError("boom")
        exc = errors.ExperimentExecutionError(
            "busy_week", "ResSusUtil", "RoundRobin", cause, completed_cells=("a", "b")
        )
        assert exc.scenario_name == "busy_week"
        assert exc.policy_name == "ResSusUtil"
        assert exc.scheduler_name == "RoundRobin"
        assert exc.completed_cells == ("a", "b")
        message = str(exc)
        assert "busy_week" in message
        assert "ValueError" in message
        assert "boom" in message

    def test_worker_died_names_the_cell_and_deaths(self):
        exc = errors.WorkerDied("smoke#7|NoRes|CrashAlways", 3)
        assert exc.cell_id == "smoke#7|NoRes|CrashAlways"
        assert exc.deaths == 3
        assert "CrashAlways" in str(exc) and "3" in str(exc)
        # strict grids wrap it, naming the failing cell
        wrapped = errors.ExperimentExecutionError("smoke", "NoRes", "CrashAlways", exc)
        assert "WorkerDied" in str(wrapped)

    def test_experiment_execution_error_defaults_to_no_completed_cells(self):
        exc = errors.ExperimentExecutionError("s", "p", "sch", RuntimeError("x"))
        assert exc.completed_cells == ()


class TestFaultPathErrors:
    """Errors raised by the fault-injection layer stay inside the hierarchy."""

    def test_bad_fault_config_is_configuration_error(self):
        from repro.faults import FaultConfig, RetryPolicy

        with pytest.raises(errors.ConfigurationError) as excinfo:
            FaultConfig(job_failure_probability=2.0)
        assert isinstance(excinfo.value, errors.ReproError)
        with pytest.raises(errors.ReproError):
            RetryPolicy(max_attempts=0)

    def test_unknown_outage_pool_is_repro_error(self):
        import repro
        from repro.faults import FaultConfig, PoolOutage
        from repro.simulator.config import SimulationConfig

        scenario = repro.smoke(seed=7)
        faults = FaultConfig(pool_outages=(PoolOutage("missing", 1.0, 1.0),))
        with pytest.raises(errors.UnknownPoolError) as excinfo:
            repro.run_simulation(
                scenario.trace,
                scenario.cluster,
                config=SimulationConfig(strict=False, faults=faults),
            )
        assert isinstance(excinfo.value, errors.ReproError)
        assert excinfo.value.pool_id == "missing"
