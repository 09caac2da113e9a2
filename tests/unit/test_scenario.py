"""Tests for the declarative Scenario spec and its compilation."""

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario, load_scenario
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig
from repro.sched.ga import NSGA2Config


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
        task = s.compile()[0]
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
    ("smoke", ("train",), "yes", "scenario.train must be a bool"),
    ("smoke", ("replications",), True, "scenario.replications must be a positive int"),
    ("smoke", ("name",), 5, "scenario.name must be a string"),
    ("smoke", ("description",), ["x"], "scenario.description must be a string"),
    ("smoke", ("seeds",), [1.5, 2], "scenario.seeds must be a list of non-negative ints"),
    ("smoke", ("seeds",), ["3", 4], "scenario.seeds must be a list of non-negative ints"),
    ("smoke", ("seeds",), [True, 5], "scenario.seeds must be a list of non-negative ints"),
    # NumPy's generators refuse these in every cell
    ("smoke", ("seed",), -1, "scenario.seed must be a non-negative int"),
    ("smoke", ("seeds",), [-1, 3], "scenario.seeds must be a list of non-negative ints"),
    ("bb_heavy_mix", ("config", "curriculum_sets"), [1.5, 1, 1],
     "config.curriculum_sets must be 3 non-negative ints"),
    ("bb_heavy_mix", ("config", "curriculum_sets"), [True, 1, 1],
     "config.curriculum_sets must be 3 non-negative ints"),
    # the offline re-scoring block is gone: an unknown field like any other
    ("smoke", ("evaluation",), {}, r"unknown scenario field\(s\) \['evaluation'\]"),
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
        assert len(EXAMPLES) == 7
        for doc in EXAMPLES.values():
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("example,path,value,message", MALFORMED)
    def test_rejected_with_a_named_field(self, example, path, value, message):
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(mutated(example, path, value))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutations_load_or_raise_value_or_key_error(self, data):
        load_mutation(data)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(data=st.data())
    def test_mutations_load_or_raise_value_or_key_error_2000(self, data):
        load_mutation(data)


def load_mutation(data) -> None:
    """Mutate an example once or twice; it must either raise a
    ValueError/KeyError or load as a well-typed scenario."""
    doc = copy.deepcopy(EXAMPLES[data.draw(st.sampled_from(sorted(EXAMPLES)))])
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(value_paths(doc))))
        parent = container(doc, path)
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    try:
        scenario = Scenario.from_dict(doc)
    except (ValueError, KeyError):
        return
    assert_well_typed(scenario)


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


#: the kind every scalar of a loaded scenario has, stated here rather
#: than read off the knob table the loader uses
SCALAR_KINDS = {
    "system": {"name": str, "nodes": is_int, "bb_units": is_int},
    "config": {
        "n_jobs": is_int, "window_size": is_int, "jobs_per_trainset": is_int,
        "mean_interarrival": is_number, "ga": dict,
        "curriculum_sets": lambda v: isinstance(v, list) and len(v) == 3
        and all(is_int(n) and n >= 0 for n in v),
    },
    "execution": {
        "queue_dir": str, "workers": is_int, "lease_ttl": is_number,
        "cell_timeout_s": is_number, "supervise": bool,
    },
}


def has_kind(value, kind) -> bool:
    return isinstance(value, kind) if isinstance(kind, type) else kind(value)


def assert_well_typed(scenario: Scenario) -> None:
    assert isinstance(scenario.name, str) and isinstance(scenario.description, str)
    assert is_int(scenario.seed) and is_int(scenario.replications)
    assert isinstance(scenario.train, bool) and isinstance(scenario.case_study, bool)
    assert scenario.seeds is None or all(map(is_int, scenario.seeds))
    for section, kinds in SCALAR_KINDS.items():
        for key, value in getattr(scenario, section).items():
            # null reads as "not given" where the section allows it
            assert (value is None and section in ("system", "execution")
                    and key not in ("name", "supervise")
                    ) or has_kind(value, kinds[key]), (section, key, value)


def keys_digest(scenario: Scenario) -> str:
    keys = ",".join(t.key() for t in scenario.compile())
    return hashlib.sha256(keys.encode()).hexdigest()[:16]


class TestArms:
    """A ``methods`` entry ``{"label", "method", "options"}`` is one method
    under its own label with its own constructor options."""

    DFP = {"label": "dfp", "method": "mrsch", "options": {"prior_weight": 0}}

    def test_an_arm_compiles_to_a_labelled_cell_with_its_options(self):
        s = Scenario.from_dict(tiny_dict(methods=["mrsch", self.DFP], goal={"dynamic": False}))
        plain, arm = s.compile()
        assert (plain.label, arm.label) == ("", "dfp")
        assert arm.method == "mrsch"
        assert dict(arm.extra) == {"dynamic_goal": False, "prior_weight": 0}
        assert s.labels == ("mrsch", "dfp")

    def test_arm_options_override_the_method_options(self):
        s = Scenario.from_dict(tiny_dict(
            methods=["mrsch", self.DFP],
            options={"mrsch": {"prior_weight": 2.0, "time_scale": 10.0}},
        ))
        plain, arm = s.compile()
        assert dict(plain.extra) == {"prior_weight": 2.0, "time_scale": 10.0}
        assert dict(arm.extra) == {"prior_weight": 0, "time_scale": 10.0}

    def test_an_arm_method_is_spelled_canonically(self):
        s = Scenario.from_dict(tiny_dict(methods=[{**self.DFP, "method": "MRSch"}]))
        assert s.methods[0]["method"] == "mrsch"

    @pytest.mark.parametrize("methods,message", [
        (["heuristic", {"label": "heuristic", "method": "prior"}],
         r"scenario.methods contains duplicates"),
        ([{"label": "a", "method": "mrsch"}, {"label": "a", "method": "prior"}],
         r"scenario.methods contains duplicates"),
        (["prior", {"label": "mrsch", "method": "heuristic"}, "mrsch"],
         r"scenario.methods contains duplicates"),
        ([{"label": "prior", "method": "mrsch"}, {"label": "p", "method": "prior"}],
         r"scenario.methods\[0\].label 'prior' is another entry's method"),
        (["mrsch", {"label": "guided", "method": "mrsch", "options": {}}],
         r"scenario.methods entries 'mrsch' and 'guided' run the same cell"),
        ([{"label": "a", "method": "mrsch", "options": {"prior_weight": 0}},
          {"label": "b", "method": "mrsch", "options": {"prior_weight": 0}}],
         r"scenario.methods entries 'a' and 'b' run the same cell"),
        ([{"label": "dfp", "method": "mrsch", "options": {"prior_wieght": 0}}],
         r"options for 'dfp' include kwargs its constructor does not accept: "
         r"\['prior_wieght'\]"),
        ([{"label": "dfp", "method": "mrsch", "opts": {}}],
         r"unknown scenario.methods\[0\] field\(s\) \['opts'\]"),
        ([{"method": "mrsch"}], r"scenario.methods\[0\].label must be a non-empty string"),
        ([{"label": "", "method": "mrsch"}], r"scenario.methods\[0\].label must be"),
        ([{"label": "a@1", "method": "mrsch"}], r"without '@'"),
        ([{"label": 3, "method": "mrsch"}], r"scenario.methods\[0\].label must be"),
        ([{"label": "a"}], r"scenario.methods\[0\] is missing required field 'method'"),
        ([{"label": "a", "method": "nope"}], r"unknown scheduler 'nope'"),
        ([{"label": "a", "method": "mrsch", "options": [1]}],
         r"scenario.methods\[0\].options must be a mapping"),
        ({"label": "a", "method": "mrsch"}, r"scenario.methods must be a list"),
    ])
    def test_refused_with_a_named_field(self, methods, message):
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(tiny_dict(methods=methods))

    def test_top_level_options_may_name_a_method_only_an_arm_runs(self):
        s = Scenario.from_dict(tiny_dict(
            methods=[self.DFP], options={"mrsch": {"time_scale": 10.0}}
        ))
        assert dict(s.compile()[0].extra) == {"prior_weight": 0, "time_scale": 10.0}

    def test_round_trips_through_to_dict(self):
        s = Scenario.from_dict(tiny_dict(methods=["heuristic", self.DFP], seeds=[1, 2]))
        again = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert again == s
        assert again.config_hash() == s.config_hash()
        assert again.compile() == s.compile()

    #: compiled at the commit before arms existed: a scenario without
    #: arms keeps its config hash and its task keys
    PINNED = {
        "bb_heavy_mix": ("127c54a5c4f644bc", "18cdb7e1589b2a6b"),
        "large_system_sweep": ("9d4b38daa019def9", "682be24826545c5d"),
        "power_aware_goals": ("a4ab71e902e2b058", "5d8dba98b5b7c45f"),
        "smoke": ("c2949b6b39f61894", "34d90b8ba1808b4c"),
    }

    @pytest.mark.parametrize("example", sorted(PINNED))
    def test_a_scenario_without_arms_keeps_its_hash_and_keys(self, example):
        s = Scenario.from_dict(EXAMPLES[example])
        assert (s.config_hash(), keys_digest(s)) == self.PINNED[example]

    @pytest.mark.parametrize("doc,pinned", [
        (tiny_dict(methods=["heuristic", "optimization"]),
         ("874189130584bc35", "c8b19979177c26fa")),
        (tiny_dict(replications=3), ("0b1ef8df093b4eb7", "4429d5a7ca3ee85c")),
        (tiny_dict(seeds=[5, 6]), ("d037ed9a9b80a883", "864c799418e4067d")),
        (tiny_dict(
            methods=["mrsch", "scalar_rl", "heuristic"],
            goal={"dynamic": False, "weights": {"node": 0.5, "burst_buffer": 0.5}},
            options={"mrsch": {"prior_weight": 0.0}},
        ), ("54c4d57a4e4fd9ca", "ad9f613263db13b5")),
    ], ids=["two-methods", "replications", "seeds", "goal"])
    def test_the_compilation_scenarios_keep_their_hash_and_keys(self, doc, pinned):
        s = Scenario.from_dict(doc)
        assert (s.config_hash(), keys_digest(s)) == pinned


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


#: the default sizing, full Theta, and one that sets every field off
#: its default
SIZINGS = {
    "default": ExperimentConfig(),
    "theta": ExperimentConfig(system_name="theta", nodes=4392, bb_units=1290),
    "custom": ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=40, window_size=5, seed=7,
        curriculum_sets=(1, 0, 2), jobs_per_trainset=30,
        ga_config=NSGA2Config(population=4, generations=2, p_crossover=0.5),
        mean_interarrival=123.5,
    ),
}


class TestCompareSizesThroughTheScenario:
    """``compare()`` writes its config into the scenario's sections; the
    scenario then builds exactly that config and the same cells."""

    @pytest.mark.parametrize("sizing", list(SIZINGS))
    def test_round_trip(self, sizing, monkeypatch):
        import repro.api.facade as facade

        config = SIZINGS[sizing]
        seen = []

        def capture(scenario, **kwargs):
            seen.append(scenario)
            return facade.ScenarioResult(scenario, [], [], {})

        monkeypatch.setattr(facade, "run_scenario", capture)
        methods, workloads = ["mrsch", "heuristic"], ["S1", "S4"]
        facade.compare(workloads, methods, config)
        (scenario,) = seen
        assert scenario.build_config() == config
        assert [t.key() for t in scenario.compile()] == [
            t.key() for t in grid_tasks(methods, workloads, config, train=True)
        ]


class TestCompilation:
    def test_matches_grid_tasks_exactly(self):
        """Scenario compilation is bit-identical to the harness grid."""
        s = Scenario.from_dict(tiny_dict(methods=["heuristic", "optimization"]))
        config = s.build_config()
        expected = grid_tasks(["heuristic", "optimization"], ["S1"], config)
        assert s.compile() == expected

    def test_replications_spawn_grid_seeds(self):
        s = Scenario.from_dict(tiny_dict(replications=3))
        config = s.build_config()
        expected = grid_tasks(["heuristic"], ["S1"], config, n_seeds=3)
        assert s.compile() == expected

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
