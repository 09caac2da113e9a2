"""Structure tests for the experiment harness and the comparison entry points.

Uses deliberately tiny configurations — these verify wiring, result
structure and invariants, not scheduling quality (the fidelity gate,
``tests/integration/test_fidelity.py``, does that at the census scale).
"""

from dataclasses import replace

import pytest

from repro.api import compare, run_scenario, run_single
from repro.api.facade import format_table
from repro.experiments.harness import (
    ExperimentConfig,
    make_method,
    prepare_base_trace,
    train_method,
)
from repro.sched.ga import NSGA2Config


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        nodes=32,
        bb_units=16,
        n_jobs=40,
        window_size=5,
        seed=3,
        curriculum_sets=(1, 1, 1),
        jobs_per_trainset=20,
        ga_config=NSGA2Config(population=6, generations=2),
    )


class TestHarness:
    def test_prepare_base_trace_size(self, tiny_config):
        assert len(prepare_base_trace(tiny_config)) == 40
        assert len(prepare_base_trace(tiny_config, n_jobs=7)) == 7

    def test_train_method_noop_for_heuristic(self, tiny_config):
        system = tiny_config.system()
        sched = make_method("heuristic", system, tiny_config)
        assert train_method(sched, system, tiny_config) is None

    def test_train_method_trains_mrsch(self, tiny_config):
        system = tiny_config.system()
        sched = make_method("mrsch", system, tiny_config)
        result = train_method(sched, system, tiny_config)
        assert result is not None
        assert result.episodes == 3
        assert result.phases == ["sampled", "real", "synthetic"]

    def test_zero_count_curriculum_phase_is_empty(self, tiny_config):
        config = replace(tiny_config, curriculum_sets=(1, 0, 0))
        system = config.system()
        result = train_method(make_method("mrsch", system, config), system, config)
        assert result.phases == ["sampled"]

    def test_zero_count_curriculum_runs_end_to_end(self):
        result = run_scenario({
            "name": "one-phase", "methods": ["mrsch"], "workloads": ["S3"],
            "train": True, "seed": 3,
            "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
            "config": {"curriculum_sets": [1, 0, 0], "jobs_per_trainset": 20,
                       "n_jobs": 30, "window_size": 5},
        })
        assert result.report("S3", "mrsch").n_jobs == 30

    def test_run_comparison_structure(self, tiny_config):
        reports = compare(
            ["S1", "S5"], ["heuristic", "scalar_rl"], tiny_config
        )
        assert set(reports) == {"S1", "S5"}
        for per_method in reports.values():
            assert set(per_method) == {"heuristic", "scalar_rl"}
            for report in per_method.values():
                assert report.n_jobs == tiny_config.n_jobs

    def test_run_comparison_case_study_adds_power(self, tiny_config):
        reports = compare(
            ["S6"], ["heuristic"], tiny_config, case_study=True
        )
        assert reports["S6"]["heuristic"].avg_power_units > 0

    def test_run_single_returns_scheduler(self, tiny_config):
        result, sched = run_single("S2", "heuristic", tiny_config, train=False)
        assert result.metrics.n_jobs == tiny_config.n_jobs
        assert sched.name == "fcfs"

    @pytest.mark.parametrize("method,workload,train,case_study", [
        ("mrsch", "S3", True, False),
        ("prior", "S7", False, True),
    ])
    def test_run_single_replays_the_cell_execute_task_replays(
        self, tiny_config, method, workload, train, case_study
    ):
        """One cell body: ``run_single`` keeps the scheduler and its
        goal log, ``execute_task`` the metrics — of the same replay."""
        from repro.exp import ExperimentTask
        from repro.exp.tasks import execute_task

        result, sched = run_single(workload, method, tiny_config, train=train)
        task = ExperimentTask(
            method, (workload,), tiny_config.seed, tiny_config,
            train=train, case_study=case_study,
        )
        cell = execute_task(task).metrics[workload]
        assert result.metrics.full_dict() == cell.full_dict()
        times, goals = sched.goal_series()
        assert len(times) == len(goals) == result.n_scheduling_instances


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "b"], {"row": [1.0, 2.5]})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.000" in text and "2.500" in text


class TestArms:
    """A ``methods`` entry may be an arm: one method under its own label
    with its own options, so two variants of a method share a grid."""

    def arms_doc(self, config, **overrides) -> dict:
        from repro.api import Scenario

        return {
            "methods": [
                "heuristic",
                {"label": "no-easy", "method": "heuristic", "options": {"backfill": False}},
            ],
            "workloads": ["S1", "S4"],
            "train": False,
            **Scenario.sections_for(config),
            **overrides,
        }

    def test_reports_are_keyed_by_label(self, tiny_config):
        result = run_scenario(self.arms_doc(tiny_config))
        for per in result.reports.values():
            assert list(per) == ["heuristic", "no-easy"]
        assert [r.display_name for r in result.results] == ["heuristic", "no-easy"]

    def test_an_arm_runs_the_cell_its_method_and_options_name(self, tiny_config):
        arms = run_scenario(self.arms_doc(tiny_config))
        plain = run_scenario(self.arms_doc(
            tiny_config, methods=["heuristic"], options={"heuristic": {"backfill": False}}
        ))
        assert arms.tasks[1].key() == plain.tasks[0].key()
        assert (arms.report("S4", "no-easy").full_dict()
                == plain.report("S4", "heuristic").full_dict())

    def test_json_output_and_multi_seed_pivots_use_the_label(
        self, tiny_config, tmp_path, capsys
    ):
        import json

        from repro.api.cli import main

        path = tmp_path / "arms.json"
        path.write_text(json.dumps(self.arms_doc(tiny_config, seeds=[3, 4])))
        assert main(["run", str(path), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert sorted(reports["S1"]) == [
            "heuristic@3", "heuristic@4", "no-easy@3", "no-easy@4",
        ]
