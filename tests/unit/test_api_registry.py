"""Tests for the pluggable component registries (repro.api.registry)."""

import pytest

from repro.api.registry import (
    SCHEDULERS,
    SYSTEMS,
    WORKLOADS,
    paper_methods,
    paper_workloads,
    register_scheduler,
    register_system,
    register_workload,
)
from repro.sched.base import Scheduler


class TestBuiltins:
    def test_paper_methods_registered(self):
        assert paper_methods() == ("mrsch", "optimization", "scalar_rl", "heuristic")

    def test_paper_workloads_registered(self):
        assert paper_workloads() == ("S1", "S2", "S3", "S4", "S5")
        assert paper_workloads(case_study=True) == ("S6", "S7", "S8", "S9", "S10")

    def test_builtin_systems(self):
        assert set(SYSTEMS.names()) >= {"mini_theta", "theta"}

    def test_capability_metadata(self):
        mrsch = SCHEDULERS.get("mrsch")
        assert mrsch.trainable and mrsch.paper and mrsch.seeded
        heuristic = SCHEDULERS.get("heuristic")
        assert not heuristic.trainable and not heuristic.seeded
        assert SCHEDULERS.get("scalar_rl").capabilities()["goal_options"] == ["weights"]
        assert WORKLOADS.get("S6").case_study and not WORKLOADS.get("S1").case_study

    def test_no_multi_resource_flag(self):
        """Every policy handles any resource count; nothing read the flag."""
        assert "multi_resource" not in SCHEDULERS.get("mrsch").capabilities()
        with pytest.raises(TypeError):
            register_scheduler("toy_flagged", multi_resource=False)
        assert "toy_flagged" not in SCHEDULERS

    def test_case_insensitive_scheduler_lookup(self):
        assert SCHEDULERS.get("MRSch").name == "mrsch"

    def test_case_insensitive_lookup_of_uppercase_names(self):
        """Folding must work both directions: 's1' finds the uppercase
        builtin 'S1', and a mixed-case plugin is found by any spelling."""
        assert WORKLOADS.get("s1").name == "S1"
        assert "s1" in WORKLOADS
        register_scheduler("SiteLocal")(lambda system, **kw: None)
        try:
            assert SCHEDULERS.get("sitelocal").name == "SiteLocal"
        finally:
            # unregister folds case too — a variant spelling must not no-op
            SCHEDULERS.unregister("sitelocal")
        assert "SiteLocal" not in SCHEDULERS


class TestLookupErrors:
    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(KeyError, match="unknown scheduler 'slurm'.*heuristic"):
            SCHEDULERS.get("slurm")

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload 'S99'"):
            WORKLOADS.get("S99")

    def test_unknown_system(self):
        with pytest.raises(KeyError, match="unknown system"):
            SYSTEMS.get("frontier")

    def test_contains(self):
        assert "mrsch" in SCHEDULERS
        assert "slurm" not in SCHEDULERS


class TestRegistration:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("heuristic")(lambda system, **kw: None)

    def test_case_variant_duplicate_rejected(self):
        """Lookup is case-insensitive, so 'Heuristic' must not be able
        to shadow the builtin 'heuristic' for some spellings only."""
        with pytest.raises(ValueError, match="already registered \\(as 'heuristic'\\)"):
            register_scheduler("Heuristic")(lambda system, **kw: None)
        assert SCHEDULERS.get("Heuristic").name == "heuristic"

    def test_register_and_unregister_scheduler(self):
        @register_scheduler("toy_noop", description="toy", seeded=False)
        class ToyScheduler(Scheduler):
            name = "toy_noop"

            def select(self, window, ctx):
                return window[0] if window else None

        try:
            assert "toy_noop" in SCHEDULERS
            assert SCHEDULERS.get("toy_noop").description == "toy"
        finally:
            SCHEDULERS.unregister("toy_noop")
        assert "toy_noop" not in SCHEDULERS

    def test_signature_adaptation_for_plain_classes(self, tiny_system):
        """A Scheduler subclass registers directly: system/seed args it
        does not declare are filtered out, declared ones arrive."""

        @register_scheduler("toy_sig")
        class SigScheduler(Scheduler):
            name = "toy_sig"

            def __init__(self, window_size=10, backfill=True):
                super().__init__(window_size=window_size, backfill=backfill)

            def select(self, window, ctx):
                return None

        try:
            sched = SCHEDULERS.get("toy_sig").build(tiny_system, window_size=4, seed=9)
            assert isinstance(sched, SigScheduler)
            assert sched.window_size == 4
        finally:
            SCHEDULERS.unregister("toy_sig")

    def test_register_workload_builder(self, tiny_system):
        @register_workload("toy_wl", description="node-only copy")
        def build_toy(base_jobs, system, seed):
            jobs = [j.copy() for j in base_jobs]
            for job in jobs:
                job.requests["burst_buffer"] = 0
            return jobs

        try:
            from repro.workload.suites import build_workload
            from tests.conftest import make_job

            base = [make_job(job_id=i, nodes=2, bb=3) for i in range(1, 4)]
            jobs = build_workload("toy_wl", base, tiny_system, seed=1)
            assert all(j.request("burst_buffer") == 0 for j in jobs)
            assert all(j.request("burst_buffer") == 3 for j in base)
        finally:
            WORKLOADS.unregister("toy_wl")

    def test_register_system_factory(self):
        from repro.cluster.resources import ResourceSpec, SystemConfig

        @register_system("toy_sys")
        def build_sys(nodes=4):
            return SystemConfig(resources=(ResourceSpec("node", nodes),))

        try:
            from repro.api.facade import make_system

            assert make_system("toy_sys", nodes=6).capacity("node") == 6
        finally:
            SYSTEMS.unregister("toy_sys")


class TestCanonicalNames:
    def test_config_options_inject_experiment_knobs(self, tiny_system):
        """A plugin declaring config_options receives ExperimentConfig
        attributes without any name-based special case in the harness."""
        from repro.experiments.harness import ExperimentConfig, make_method

        built = {}

        @register_scheduler(
            "toy_cfg", config_options={"ga_config": "budget"},
            allowed_kwargs=("budget",),
        )
        def make_toy(system, window_size=10, seed=None, budget=None):
            built["budget"] = budget
            from repro.sched.fcfs import FCFSScheduler

            return FCFSScheduler(window_size=window_size)

        try:
            config = ExperimentConfig(nodes=16, bb_units=8)
            make_method("toy_cfg", tiny_system, config)
            assert built["budget"] is config.ga_config
        finally:
            SCHEDULERS.unregister("toy_cfg")

    def test_make_method_ga_budget_survives_alternate_spelling(self, tiny_system):
        """Case-insensitive lookup must not bypass the harness's
        ga_config injection for the optimization method."""
        from repro.experiments.harness import ExperimentConfig, make_method
        from repro.sched.ga import NSGA2Config

        config = ExperimentConfig(
            nodes=16, bb_units=8, ga_config=NSGA2Config(population=4, generations=2)
        )
        sched = make_method("Optimization", tiny_system, config)
        assert sched.config.population == 4
        assert sched.config.generations == 2


class TestLegacyShim:
    """What the removed sched.registry / run_comparison shims promised,
    asserted on the ``repro.api`` entry points that replaced them."""

    def test_run_comparison_preserves_caller_spelling(self):
        """Case-insensitive method names stay usable as result keys, as
        they were before the registry rewrite."""
        from repro.api.facade import compare
        from repro.experiments.harness import ExperimentConfig

        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=20, window_size=5)
        reports = compare(["S1"], ["Heuristic"], config, train=False)
        assert list(reports["S1"]) == ["Heuristic"]

    def test_compare_preserves_caller_spelling_per_seed(self):
        from repro.api.facade import compare
        from repro.experiments.harness import ExperimentConfig

        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=20, window_size=5)
        reports = compare(
            ["S1"], ["Heuristic"], config, seeds=[5, 6], train=False
        )
        assert set(reports["S1"]) == {"Heuristic@5", "Heuristic@6"}

    def test_compare_rejects_workload_missing_required_resources(self):
        """A substituted config is validated against the workloads'
        resource requirements, not just the scenario's own system."""
        from repro.api.facade import compare
        from repro.api.registry import SYSTEMS, register_system
        from repro.cluster.resources import ResourceSpec, SystemConfig
        from repro.experiments.harness import ExperimentConfig

        @register_system("toy_ab_only")
        def build_ab():
            return SystemConfig(
                resources=(ResourceSpec("A", 10), ResourceSpec("B", 10))
            )

        try:
            config = ExperimentConfig(system_name="toy_ab_only")
            with pytest.raises(ValueError, match="requires resource.*'node'"):
                compare(["S1"], ["heuristic"], config, train=False)
        finally:
            SYSTEMS.unregister("toy_ab_only")

    def test_compare_validates_against_the_callers_system(self):
        """A plugin workload whose resource needs are met by the config's
        (non-default) system runs through compare()."""
        from repro.api.facade import compare
        from repro.api.registry import (
            SYSTEMS,
            WORKLOADS,
            register_system,
            register_workload,
        )
        from repro.experiments.harness import ExperimentConfig
        from repro.workload.suites import build_workload, powered_system

        @register_system("toy_powered")
        def build_powered(nodes=32, bb_units=16):
            from repro.cluster.resources import SystemConfig

            return powered_system(SystemConfig.mini_theta(nodes, bb_units))

        @register_workload(
            "toy_pw_mix", requires=("node", "burst_buffer", "power")
        )
        def build_pw_mix(base_jobs, system, seed):
            return build_workload("S6", base_jobs, system, seed=seed)

        try:
            config = ExperimentConfig(
                nodes=32, bb_units=16, n_jobs=20, window_size=5,
                system_name="toy_powered",
            )
            reports = compare(["toy_pw_mix"], ["heuristic"], config, train=False)
            assert reports["toy_pw_mix"]["heuristic"].n_jobs == 20
        finally:
            SYSTEMS.unregister("toy_powered")
            WORKLOADS.unregister("toy_pw_mix")

    def test_make_scheduler_forwards_kwargs(self, tiny_system):
        sched = SCHEDULERS.get("heuristic").build(tiny_system, backfill=False)
        assert sched.backfill_enabled is False

    def test_available_schedulers_matches_registry(self):
        from repro.api import list_schedulers

        assert SCHEDULERS.names() == list_schedulers()
