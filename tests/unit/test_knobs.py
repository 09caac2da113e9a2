"""The option surface: every key a scenario section accepts and every
numeric flag of ``repro work`` / ``doctor`` / ``queue-status``, listed
here so that adding or removing a knob fails loudly."""

import dataclasses

import pytest

from repro.api.cli import build_parser
from repro.api.knobs import FLAG_SECTIONS, check_knobs, knob_keys
from repro.experiments.harness import ExperimentConfig

SCENARIO_KEYS = {
    "scenario": {
        "name", "description", "methods", "schedulers", "workloads", "system",
        "seed", "seeds", "replications", "train", "case_study", "goal",
        "options", "config", "execution",
    },
    "system": {"name", "nodes", "bb_units"},
    "execution": {
        "queue_dir", "workers", "lease_ttl", "cell_timeout_s", "supervise",
    },
    "config": {
        "n_jobs", "window_size", "jobs_per_trainset", "curriculum_sets",
        "mean_interarrival", "ga",
    },
}

FLAGS = {
    "work": {
        "--lease-ttl", "--poll", "--cell-timeout", "--max-cells", "--supervise",
        "--max-crashes", "--backoff",
    },
    "doctor": {"--stale-after"},
    "queue-status": {"--watch"},
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

    def test_flag_sections_are_the_commands_listed(self):
        assert set(FLAG_SECTIONS) == set(FLAGS)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_numeric_flags(self, command):
        parser = next(
            action.choices[command] for action in build_parser()._actions
            if isinstance(action.choices, dict) and command in action.choices
        )
        numeric = {
            action.option_strings[0] for action in parser._actions
            if action.type in (int, float)
        }
        assert numeric == FLAGS[command]
        assert {f"--{key.replace('_', '-')}" for key in knob_keys(command)} == FLAGS[command]


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
        ("doctor", "stale_after", float("nan")),
        ("doctor", "stale_after", -1.0),
        ("queue-status", "watch", 0.0),
        ("ExperimentConfig", "seed", -3),  # NumPy's generators refuse it
    ])
    def test_rejects(self, section, key, value):
        name = f"--{key.replace('_', '-')}" if section in FLAG_SECTIONS else key
        with pytest.raises(ValueError, match=f"{name} must be"):
            check_knobs(section, {key: value})

    @pytest.mark.parametrize("section,key,value", [
        ("system", "nodes", None),  # null reads as "not given" here
        ("config", "mean_interarrival", 600),
        ("config", "curriculum_sets", (0, 2, 1)),
        ("scenario", "seeds", ()),  # emptiness is the scenario's own check
        ("work", "cell_timeout", 0.0),  # 0: no watchdog
        ("doctor", "stale_after", 0.0),  # 0: every unexited worker is stale
        ("queue-status", "watch", None),  # no --watch: one snapshot
    ])
    def test_accepts(self, section, key, value):
        check_knobs(section, {key: value})

    def test_flag_errors_name_the_flag(self):
        with pytest.raises(ValueError, match=r"^--max-crashes must be a positive int, got 0$"):
            check_knobs("work", {"max_crashes": 0})
