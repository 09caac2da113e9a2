"""The option surface: every key a scenario section accepts and every
numeric ``repro work`` flag, listed here so that adding or removing a
knob fails loudly."""

import dataclasses

import pytest

from repro.api.cli import build_parser
from repro.api.knobs import check_knobs, knob_keys
from repro.experiments.harness import ExperimentConfig

SCENARIO_KEYS = {
    "scenario": {
        "name", "description", "methods", "schedulers", "workloads", "system",
        "seed", "seeds", "replications", "train", "case_study", "goal",
        "options", "config", "execution",
    },
    "system": {"name", "nodes", "bb_units"},
    "execution": {
        "dispatch", "queue_dir", "workers", "lease_ttl", "cell_timeout_s", "supervise",
    },
    "config": {
        "n_jobs", "window_size", "jobs_per_trainset", "curriculum_sets",
        "mean_interarrival", "ga",
    },
}

WORK_FLAGS = {
    "--lease-ttl", "--poll", "--cell-timeout", "--max-cells", "--supervise",
    "--max-crashes", "--backoff",
}


class TestOptionSurface:
    @pytest.mark.parametrize("section", sorted(SCENARIO_KEYS))
    def test_scenario_section_accepts_exactly_these_keys(self, section):
        assert set(knob_keys(section)) == SCENARIO_KEYS[section]
        with pytest.raises(ValueError, match=f"unknown {section} field"):
            check_knobs(section, {"no_such_knob": 1})

    def test_experiment_config_rows_are_its_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(knob_keys("ExperimentConfig")) == fields

    def test_work_numeric_flags(self):
        work = next(
            action.choices["work"] for action in build_parser()._actions
            if isinstance(action.choices, dict) and "work" in action.choices
        )
        numeric = {
            action.option_strings[0] for action in work._actions
            if action.type in (int, float)
        }
        assert numeric == WORK_FLAGS
        assert {f"--{key.replace('_', '-')}" for key in knob_keys("work")} == WORK_FLAGS


class TestKindRule:
    @pytest.mark.parametrize("section,key,value", [
        ("system", "nodes", True),  # an int is not a bool
        ("system", "nodes", 2.0),
        ("config", "mean_interarrival", False),  # a number is not a bool
        ("config", "mean_interarrival", float("nan")),
        ("execution", "supervise", 1),  # a bool is a bool
        ("scenario", "name", None),
        ("scenario", "seeds", [1, False]),
        ("config", "curriculum_sets", (1, 1, 1, 1)),
        ("work", "poll", float("inf")),
        ("ExperimentConfig", "seed", -3),  # NumPy's generators refuse it
    ])
    def test_rejects(self, section, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            check_knobs(section, {key: value})

    @pytest.mark.parametrize("section,key,value", [
        ("system", "nodes", None),  # null reads as "not given" here
        ("config", "mean_interarrival", 600),
        ("config", "curriculum_sets", (0, 2, 1)),
        ("scenario", "seeds", ()),  # emptiness is the scenario's own check
        ("work", "cell_timeout", 0.0),  # 0: no watchdog
        ("execution", "dispatch", "queue"),
    ])
    def test_accepts(self, section, key, value):
        check_knobs(section, {key: value})

    def test_flag_errors_name_the_flag(self):
        with pytest.raises(ValueError, match=r"^--max-crashes must be a positive int, got 0$"):
            check_knobs("work", {"max_crashes": 0})
