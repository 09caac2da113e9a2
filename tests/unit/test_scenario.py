"""Tests for the declarative Scenario spec and its compilation."""

import copy
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario, load_scenario
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig


def tiny_dict(**overrides) -> dict:
    data = {
        "name": "tiny",
        "methods": ["heuristic"],
        "workloads": ["S1"],
        "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
        "seed": 97,
        "train": False,
        "config": {"n_jobs": 25, "window_size": 5},
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal(self):
        s = Scenario.from_dict({"methods": ["heuristic"], "workloads": ["S1"]})
        assert s.case_study is False and s.replications == 1

    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown scenario field.*'sheduler'"):
            Scenario.from_dict(tiny_dict(sheduler="x"))

    def test_missing_methods(self):
        with pytest.raises(ValueError, match="missing required field 'methods'"):
            Scenario.from_dict({"workloads": ["S1"]})

    def test_missing_workloads(self):
        with pytest.raises(ValueError, match="missing required field 'workloads'"):
            Scenario.from_dict({"methods": ["heuristic"]})

    def test_unknown_method_names_available(self):
        with pytest.raises(ValueError, match="unknown scheduler 'slurm'.*mrsch"):
            Scenario.from_dict(tiny_dict(methods=["slurm"]))

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload 'S99'"):
            Scenario.from_dict(tiny_dict(workloads=["S99"]))

    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system 'summit'"):
            Scenario.from_dict(tiny_dict(system={"name": "summit"}))

    def test_unknown_system_field(self):
        with pytest.raises(ValueError, match="unknown system field.*'cpus'"):
            Scenario.from_dict(tiny_dict(system={"name": "mini_theta", "cpus": 4}))

    def test_mixed_case_study_flavours_rejected(self):
        with pytest.raises(ValueError, match="mixes case-study"):
            Scenario.from_dict(tiny_dict(workloads=["S1", "S6"]))

    def test_case_study_derived_from_workloads(self):
        assert Scenario.from_dict(tiny_dict(workloads=["S6", "S8"])).case_study is True

    def test_explicit_case_study_must_match_workload_flavour(self):
        """A contradictory flag would otherwise crash deep inside a
        worker with jobs built for the wrong system."""
        with pytest.raises(ValueError, match="case_study=False contradicts"):
            Scenario.from_dict(tiny_dict(workloads=["S9"], case_study=False))
        with pytest.raises(ValueError, match="case_study=True contradicts"):
            Scenario.from_dict(tiny_dict(case_study=True))
        s = Scenario.from_dict(tiny_dict(workloads=["S9"], case_study=True))
        assert s.case_study is True

    def test_duplicate_methods_rejected(self):
        """'MRSch' and 'mrsch' canonicalise to the same cell — running
        it twice and silently merging the pivot helps nobody."""
        with pytest.raises(ValueError, match="methods contains duplicates"):
            Scenario.from_dict(tiny_dict(methods=["MRSch", "mrsch"]))

    def test_duplicate_workloads_rejected(self):
        with pytest.raises(ValueError, match="workloads contains duplicates"):
            Scenario.from_dict(tiny_dict(workloads=["S1", "S1"]))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds contains duplicates"):
            Scenario.from_dict(tiny_dict(seeds=[7, 7]))

    def test_unknown_option_kwarg_rejected_up_front(self):
        """A typo'd constructor option fails validation with the accepted
        names, not a TypeError deep inside a worker."""
        with pytest.raises(ValueError, match="'backfil'.*accepted.*backfill"):
            Scenario.from_dict(tiny_dict(options={"heuristic": {"backfil": False}}))

    def test_goal_values_must_be_serialisable(self):
        import numpy as np

        with pytest.raises(ValueError, match="JSON-serialisable"):
            Scenario.from_dict(
                tiny_dict(
                    methods=["scalar_rl"],
                    goal={"weights": np.array([0.5, 0.5])},
                )
            )

    def test_string_methods_not_char_split(self):
        """A bare string — an easy JSON mistake — must produce a type
        error, not "unknown scheduler 'h'" from character iteration."""
        with pytest.raises(ValueError, match="must be a list of names"):
            Scenario.from_dict(tiny_dict(methods="heuristic"))
        with pytest.raises(ValueError, match="must be a list of names"):
            Scenario.from_dict(tiny_dict(workloads="S1"))

    def test_workload_requirements_checked_against_system(self):
        """A workload whose builder needs node/burst_buffer resources is
        rejected up front on a system that lacks them."""
        from repro.api.registry import SYSTEMS, register_system
        from repro.cluster.resources import ResourceSpec, SystemConfig

        @register_system("toy_ab")
        def build_ab():
            return SystemConfig(
                resources=(ResourceSpec("A", 10), ResourceSpec("B", 10))
            )

        try:
            with pytest.raises(ValueError, match="requires resource.*'node'"):
                Scenario.from_dict(tiny_dict(system={"name": "toy_ab"}))
        finally:
            SYSTEMS.unregister("toy_ab")

    def test_reserved_option_names_override_config(self):
        """Per-method options may override grid-wide sizing kwargs like
        window_size instead of raising a duplicate-keyword TypeError."""
        from repro.api.facade import run_scenario
        from repro.experiments.harness import make_method

        s = Scenario.from_dict(
            tiny_dict(options={"heuristic": {"window_size": 3}})
        )
        config = s.build_config()
        task = s.compile(config=config)[0]
        sched = make_method(task.method, config.system(), config, **dict(task.extra))
        assert sched.window_size == 3  # option beat the config-wide 5
        result = run_scenario(s)  # and the scenario runs end to end
        assert result.reports["S1"]["heuristic"].n_jobs == 25

    def test_options_accept_alternate_method_spelling(self):
        s = Scenario.from_dict(
            tiny_dict(methods=["MRSch"], options={"MRSch": {"prior_weight": 0.0}})
        )
        assert s.methods == ("mrsch",)
        assert dict(s.compile()[0].extra) == {"prior_weight": 0.0}

    def test_seeds_and_replications_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            Scenario.from_dict(tiny_dict(seeds=[1, 2], replications=3))

    def test_bad_replications(self):
        with pytest.raises(ValueError, match="replications must be a positive int"):
            Scenario.from_dict(tiny_dict(replications=0))

    def test_unknown_goal_key(self):
        with pytest.raises(ValueError, match="unknown goal option.*'weigths'"):
            Scenario.from_dict(tiny_dict(goal={"weigths": {}}))

    def test_plugin_goal_options_accepted(self):
        """Goal keys come from registry metadata, so a plugin scheduler's
        declared goal options validate and translate like builtins'."""
        from repro.api.registry import SCHEDULERS, register_scheduler

        @register_scheduler(
            "toy_goalful",
            goal_options={"latency": "lat_weight"},
            allowed_kwargs=("lat_weight",),
        )
        def make_goalful(system, window_size=10, seed=None, lat_weight=1.0):
            raise NotImplementedError  # construction not needed here

        try:
            s = Scenario.from_dict(
                tiny_dict(methods=["toy_goalful"], goal={"latency": 2.0})
            )
            assert dict(s.compile()[0].extra) == {"lat_weight": 2.0}
        finally:
            SCHEDULERS.unregister("toy_goalful")

    def test_goal_key_consumed_by_no_method(self):
        """'weights' is a scalar_rl option; a heuristic-only scenario
        must name the schedulers that would accept it."""
        with pytest.raises(ValueError, match="consumed by none.*scalar_rl"):
            Scenario.from_dict(tiny_dict(goal={"weights": {"node": 1.0}}))

    def test_options_for_unselected_method(self):
        with pytest.raises(ValueError, match="options given for 'mrsch'"):
            Scenario.from_dict(tiny_dict(options={"mrsch": {"prior_weight": 0}}))

    def test_unknown_config_field(self):
        with pytest.raises(ValueError, match="unknown config field.*'njobs'"):
            Scenario.from_dict(tiny_dict(config={"njobs": 10}))

    def test_bad_sizing_surfaces_experiment_config_error(self):
        with pytest.raises(ValueError, match="n_jobs must be a positive int"):
            Scenario.from_dict(tiny_dict(config={"n_jobs": -5}))

    def test_bad_ga_field(self):
        with pytest.raises(ValueError, match="config.ga"):
            Scenario.from_dict(tiny_dict(config={"ga": {"pop": 3}}))

    def test_method_spelling_is_canonicalised(self):
        """'Optimization' normalises to the registry name, so task keys,
        labels and the harness's ga_config injection all agree."""
        s = Scenario.from_dict(tiny_dict(methods=["Optimization", "MRSch"]))
        assert s.methods == ("optimization", "mrsch")

    def test_fixed_scale_system_defines_its_own_sizing(self):
        """'theta' ignores sizing args, so the experiment inherits the
        built system's capacities instead of demanding magic numbers."""
        config = Scenario.from_dict(tiny_dict(system={"name": "theta"})).build_config()
        assert (config.nodes, config.bb_units) == (4392, 1290)
        assert config.system().capacity("node") == 4392

    def test_fixed_scale_system_rejects_explicit_resize(self):
        with pytest.raises(ValueError, match="fixes node at 4392.*resized to 64"):
            Scenario.from_dict(tiny_dict(system={"name": "theta", "nodes": 64}))

    def test_non_list_workloads_value(self):
        with pytest.raises(ValueError, match="workloads must be a list"):
            Scenario.from_dict(tiny_dict(workloads=5))

    def test_schedulers_alias(self):
        s = Scenario.from_dict(
            {"schedulers": ["heuristic"], "workloads": ["S1"]}
        )
        assert s.methods == ("heuristic",)
        with pytest.raises(ValueError, match="not both"):
            Scenario.from_dict(
                {"methods": ["heuristic"], "schedulers": ["mrsch"], "workloads": ["S1"]}
            )


EXAMPLES = {
    path.stem: json.loads(path.read_text())
    for path in sorted(
        (Path(__file__).resolve().parents[2] / "examples" / "scenarios").glob("*.json")
    )
}

#: (example, path to the mutated value, new value, message): each row
#: once escaped ``Scenario`` as a TypeError/OverflowError or loaded
#: without complaint.
MALFORMED = [
    ("smoke", ("methods",), [["heuristic"]], "scheduler names must be strings"),
    ("smoke", ("system", "nodes"), {}, "system.nodes must be a positive int"),
    ("bb_heavy_mix", ("config", "curriculum_sets", 1), 1e400,
     r"curriculum_sets\[1\] must be finite"),
    ("smoke", ("config", "mean_interarrival"), "", "mean_interarrival must be"),
    ("offline_eval", ("evaluation", "policies"), [{}],
     "policies must be a non-empty list of names"),
    ("power_aware_goals", ("goal", "weights", "node"), float("nan"),
     "goal.weights.node must be finite"),
    ("bb_heavy_mix", ("config", "ga", "generations"), float("inf"),
     "ga.generations must be finite"),
    ("smoke", ("config", "mean_interarrival"), float("inf"),
     "mean_interarrival must be finite"),
    ("smoke", ("workloads",), [["S1"]], "workload names must be strings"),
    ("smoke", ("system", "name"), 7, "system names must be strings"),
    ("smoke", ("system", "bb_units"), 0, "system.bb_units must be a positive int"),
    ("smoke", ("system", "nodes"), True, "system.nodes must be a positive int"),
]


def container(doc, path: tuple):
    """The dict or list holding the value at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutated(example: str, path: tuple, value) -> dict:
    doc = copy.deepcopy(EXAMPLES[example])
    container(doc, path)[path[-1]] = value
    return doc


def value_paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["heuristic", "mrsch", "S1", "S9", "theta", "fcfs"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


class TestMalformedDocuments:
    def test_examples_load(self):
        assert len(EXAMPLES) == 5
        for doc in EXAMPLES.values():
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("example,path,value,message", MALFORMED)
    def test_rejected_with_a_named_field(self, example, path, value, message):
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(mutated(example, path, value))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutations_load_or_raise_value_or_key_error(self, data):
        doc = copy.deepcopy(EXAMPLES[data.draw(st.sampled_from(sorted(EXAMPLES)))])
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(value_paths(doc))))
            parent = container(doc, path)
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
        try:
            Scenario.from_dict(doc)
        except (ValueError, KeyError):
            pass


class TestEvaluationBlock:
    def test_valid_block_accepted_and_enables_capture(self):
        s = Scenario.from_dict(
            tiny_dict(evaluation={"policies": ["fcfs", "shortest_job"],
                                  "trace_dir": "traces", "bootstrap": 200,
                                  "seed": 1})
        )
        tasks = s.compile()
        assert all(t.capture_traces for t in tasks)

    def test_absent_block_leaves_capture_off(self):
        tasks = Scenario.from_dict(tiny_dict()).compile()
        assert all(not t.capture_traces for t in tasks)

    def test_unknown_evaluation_field(self):
        with pytest.raises(ValueError, match="unknown evaluation field.*'polices'"):
            Scenario.from_dict(tiny_dict(evaluation={"polices": ["fcfs"]}))

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError, match="unknown eval policy 'slurm'"):
            Scenario.from_dict(tiny_dict(evaluation={"policies": ["slurm"]}))

    def test_empty_policies_rejected(self):
        with pytest.raises(ValueError, match="non-empty list"):
            Scenario.from_dict(tiny_dict(evaluation={"policies": []}))

    def test_bad_bootstrap_rejected(self):
        with pytest.raises(ValueError, match="bootstrap must be a positive int"):
            Scenario.from_dict(
                tiny_dict(evaluation={"policies": ["fcfs"], "bootstrap": 0})
            )

    def test_bad_trace_dir_rejected(self):
        with pytest.raises(ValueError, match="trace_dir"):
            Scenario.from_dict(
                tiny_dict(evaluation={"policies": ["fcfs"], "trace_dir": ""})
            )

    def test_block_roundtrips_and_hashes(self):
        data = tiny_dict(evaluation={"policies": ["fcfs", "prior"]})
        s = Scenario.from_dict(data)
        assert Scenario.from_dict(s.to_dict()) == s
        assert s.config_hash() != Scenario.from_dict(tiny_dict()).config_hash()

    def test_capture_only_block_without_policies(self):
        s = Scenario.from_dict(tiny_dict(evaluation={"trace_dir": "traces"}))
        assert all(t.capture_traces for t in s.compile())


class TestSerialization:
    def test_round_trip(self):
        s = Scenario.from_dict(tiny_dict(goal=None or {}, replications=2))
        again = Scenario.from_dict(s.to_dict())
        assert again == s

    def test_from_file_and_loader(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(tiny_dict()))
        s = Scenario.from_file(path)
        assert s.name == "tiny"
        assert load_scenario(path) == s
        assert load_scenario(s) is s
        assert load_scenario(tiny_dict()) == s

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError, match="scenario file not found"):
            Scenario.from_file("no/such/scenario.json")

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json is not valid JSON"):
            Scenario.from_file(path)

    def test_validation_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_dict(methods=["slurm"])))
        with pytest.raises(ValueError, match="bad.json: unknown scheduler"):
            Scenario.from_file(path)

    def test_loader_type_error(self):
        with pytest.raises(TypeError, match="cannot load a scenario"):
            load_scenario(42)


class TestHashStability:
    def test_hash_ignores_key_order(self, tmp_path):
        data = tiny_dict()
        reordered = dict(reversed(list(data.items())))
        assert (
            Scenario.from_dict(data).config_hash()
            == Scenario.from_dict(reordered).config_hash()
        )

    def test_hash_changes_with_content(self):
        a = Scenario.from_dict(tiny_dict())
        b = Scenario.from_dict(tiny_dict(seed=98))
        assert a.config_hash() != b.config_hash()

    def test_compiled_task_keys_are_stable(self):
        keys_a = [t.key() for t in Scenario.from_dict(tiny_dict()).compile()]
        keys_b = [t.key() for t in Scenario.from_dict(tiny_dict()).compile()]
        assert keys_a == keys_b


class TestCompilation:
    def test_matches_grid_tasks_exactly(self):
        """Scenario compilation is bit-identical to the harness grid."""
        s = Scenario.from_dict(tiny_dict(methods=["heuristic", "optimization"]))
        config = s.build_config()
        expected = grid_tasks(["heuristic", "optimization"], ["S1"], config)
        assert s.compile(config=config) == expected

    def test_replications_spawn_grid_seeds(self):
        s = Scenario.from_dict(tiny_dict(replications=3))
        config = s.build_config()
        expected = grid_tasks(["heuristic"], ["S1"], config, n_seeds=3)
        assert s.compile(config=config) == expected

    def test_explicit_seeds(self):
        tasks = Scenario.from_dict(tiny_dict(seeds=[5, 6])).compile()
        assert [t.seed for t in tasks] == [5, 6]

    def test_build_config_fields(self):
        config = Scenario.from_dict(
            tiny_dict(config={"n_jobs": 25, "window_size": 5,
                              "curriculum_sets": [1, 1, 1],
                              "ga": {"population": 6, "generations": 2}})
        ).build_config()
        assert isinstance(config, ExperimentConfig)
        assert (config.nodes, config.bb_units) == (32, 16)
        assert (config.n_jobs, config.window_size) == (25, 5)
        assert config.curriculum_sets == (1, 1, 1)
        assert config.ga_config.population == 6
        assert config.system_name == "mini_theta"

    def test_goal_translates_per_method(self):
        s = Scenario.from_dict(
            tiny_dict(
                methods=["mrsch", "scalar_rl", "heuristic"],
                goal={"dynamic": False, "weights": {"node": 0.5, "burst_buffer": 0.5}},
                options={"mrsch": {"prior_weight": 0.0}},
            )
        )
        by_method = {t.method: dict(t.extra) for t in s.compile()}
        assert by_method["mrsch"] == {"dynamic_goal": False, "prior_weight": 0.0}
        assert by_method["scalar_rl"] == {
            "reward_weights": {"node": 0.5, "burst_buffer": 0.5}
        }
        assert by_method["heuristic"] == {}

    def test_replace_revalidates(self):
        s = Scenario.from_dict(tiny_dict())
        assert s.replace(seed=5).seed == 5
        with pytest.raises(ValueError, match="replications"):
            s.replace(replications=-1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Scenario.from_dict(tiny_dict()).seed = 1
