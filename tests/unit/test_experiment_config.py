"""Construction-time validation of ExperimentConfig / SystemConfig."""

import pytest

from repro.cluster.resources import ResourceSpec, SystemConfig
from repro.experiments.harness import ExperimentConfig


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "field", ["nodes", "bb_units", "n_jobs", "window_size", "jobs_per_trainset"]
    )
    @pytest.mark.parametrize("value", [0, -4, 1.5, "8", True])
    def test_positive_int_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive int"):
            ExperimentConfig(**{field: value})

    def test_seed_must_be_int(self):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            ExperimentConfig(seed="2022")

    def test_mean_interarrival_positive(self):
        with pytest.raises(ValueError, match="mean_interarrival must be positive"):
            ExperimentConfig(mean_interarrival=0.0)

    @pytest.mark.parametrize("sets", [(1, 1), (1, 1, 1, 1), (1, -1, 1), (1, 1.5, 1), 3])
    def test_curriculum_sets_shape(self, sets):
        with pytest.raises(ValueError, match="curriculum_sets"):
            ExperimentConfig(curriculum_sets=sets)

    def test_system_name_must_be_nonempty(self):
        with pytest.raises(ValueError, match="system_name"):
            ExperimentConfig(system_name="")

    def test_unregistered_system_fails_at_build(self):
        config = ExperimentConfig(system_name="summit")
        with pytest.raises(KeyError, match="unknown system 'summit'"):
            config.system()

    def test_valid_config_builds_registered_system(self):
        system = ExperimentConfig(nodes=48, bb_units=24).system()
        assert system.capacity("node") == 48
        assert system.capacity("burst_buffer") == 24

    def test_fixed_scale_system_must_match_sizing(self):
        """'theta' ignores sizing args; a divergent config fails loudly
        instead of silently generating a trace for the wrong machine."""
        with pytest.raises(ValueError, match="4392 node units.*sized for 128"):
            ExperimentConfig(system_name="theta").system()
        system = ExperimentConfig(
            nodes=4392, bb_units=1290, system_name="theta"
        ).system()
        assert system.capacity("node") == 4392


class TestTraceSize:
    def test_an_explicit_zero_job_trace_is_empty(self):
        """``n_jobs=0`` is a size, not "unset": the base trace agrees with
        the generator it wraps (it used to fall back to 150 jobs)."""
        from repro.experiments.harness import prepare_base_trace
        from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

        assert generate_theta_trace(ThetaTraceConfig(n_jobs=0)) == []
        assert prepare_base_trace(ExperimentConfig(), n_jobs=0) == []
        assert ExperimentConfig().trace_config(0).n_jobs == 0


class TestSystemConfigValidation:
    def test_negative_units_rejected(self):
        with pytest.raises(ValueError, match="positive units"):
            ResourceSpec("node", -1)

    def test_zero_units_rejected(self):
        with pytest.raises(ValueError, match="positive units"):
            ResourceSpec("node", 0)

    def test_empty_resource_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ResourceSpec("", 4)

    def test_duplicate_resource_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate resource names"):
            SystemConfig(resources=(ResourceSpec("node", 2), ResourceSpec("node", 3)))

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="at least one resource"):
            SystemConfig(resources=())
