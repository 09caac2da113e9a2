"""Structure tests for the experiment harness and figure entry points.

Uses deliberately tiny configurations — these verify wiring, result
structure and invariants, not scheduling quality (the benchmarks do
that at realistic scale).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import run_scenario
from repro.experiments.figures import (
    fig5_fig6_comparison,
    fig7_kiviat,
    fig8_rbb_timeline,
    fig9_rbb_distribution,
    overhead_study,
)
from repro.api import compare
from repro.experiments.harness import (
    ExperimentConfig,
    make_method,
    prepare_base_trace,
    run_single,
    train_method,
)
from repro.experiments.report import format_boxstats, format_series, format_table
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


class TestFigures:
    def test_fig8_structure(self, tiny_config):
        out = fig8_rbb_timeline(tiny_config, train=False)
        assert "rBB" in out["data"]
        assert len(out["data"]["rBB"]) > 0
        assert 0.0 <= out["stats"]["mean"] <= 1.0
        assert "Fig 8" in out["text"]

    def test_fig9_structure(self, tiny_config):
        out = fig9_rbb_distribution(tiny_config, workloads=("S1", "S5"), train=False)
        assert set(out["data"]) == {"S1", "S5"}
        for stats in out["data"].values():
            assert stats["min"] <= stats["median"] <= stats["max"]

    def test_fig5_fig6_tables_render_the_compared_reports(self, tiny_config):
        methods, workloads = ("heuristic", "prior"), ("S1", "S2")
        out = fig5_fig6_comparison(tiny_config, workloads=workloads, methods=methods)
        reports = compare(list(workloads), list(methods), tiny_config)
        assert out["data"] == reports
        blocks = []
        for fig, metrics in (("5", ("node_util", "bb_util")),
                             ("6", ("avg_wait_h", "avg_slowdown"))):
            for metric in metrics:
                rows = {
                    m: [reports[w][m].as_dict()[metric] for w in workloads]
                    for m in methods
                }
                blocks.append(format_table(
                    f"Fig {fig} — {metric} (columns: S1, S2)", list(workloads), rows
                ))
        assert out["text"] == "\n\n".join(blocks)

    def test_fig7_from_precomputed_reports(self, tiny_config):
        reports = compare(["S1"], ["heuristic", "scalar_rl"], tiny_config,
                                 train=False)
        out = fig7_kiviat(reports=reports)
        chart = out["data"]["S1"]
        for axes in chart.values():
            assert all(0.0 <= v <= 1.0 + 1e-9 for v in axes.values())
        assert out["areas"]["S1"].keys() == chart.keys()

    def test_overhead_structure(self, tiny_config):
        out = overhead_study(tiny_config, n_decisions=5)
        assert set(out["data"]) == {"2 resources", "3 resources"}
        assert all(v > 0 for v in out["data"].values())


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "b"], {"row": [1.0, 2.5]})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.000" in text and "2.500" in text

    def test_format_series_subsamples(self):
        text = format_series("S", {"x": list(range(100))}, max_points=5)
        assert "… 100 points" in text

    def test_format_boxstats(self):
        stats = {"S1": {"min": 0.0, "q1": 0.2, "median": 0.5, "q3": 0.7, "max": 1.0}}
        text = format_boxstats("B", stats)
        assert "median" in text and "S1" in text
