"""Determinism regression: the parallel engine never changes a metric.

The engine's core guarantee — serial and parallel execution of the same
grid produce bit-identical :class:`MetricReport` values — is what lets
every later scaling PR swap execution strategies without a result audit.
These tests lock it down with exact (``==``, not approximate) float
comparisons, across worker counts (more than one runs the grid on a
private temporary queue), task orderings, and the cache/checkpoint/
queue recall paths.
"""

from __future__ import annotations

import pytest

from repro.api import compare
from repro.exp import ExperimentRunner, grid_tasks, pivot_results
from repro.experiments.harness import ExperimentConfig
from repro.sched.ga import NSGA2Config

METHODS = ["heuristic", "optimization", "scalar_rl"]


@pytest.fixture(scope="module")
def grid_config() -> ExperimentConfig:
    return ExperimentConfig(
        nodes=32,
        bb_units=16,
        n_jobs=30,
        window_size=5,
        seed=97,
        curriculum_sets=(1, 1, 1),
        jobs_per_trainset=15,
        ga_config=NSGA2Config(population=6, generations=2),
    )


def _exact(results):
    """Fully-resolved float values for exact comparison."""
    return [(r.key, r.seed, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in results]


class TestSerialParallelIdentity:
    def test_grid_identical_across_worker_counts(self, grid_config):
        tasks = grid_tasks(METHODS, ["S1", "S4"], grid_config, n_seeds=2)
        serial = ExperimentRunner(n_workers=1).run(tasks)
        for n_workers in (2, 4):
            parallel = ExperimentRunner(n_workers=n_workers).run(tasks)
            assert _exact(parallel) == _exact(serial)

    def test_task_order_is_irrelevant(self, grid_config):
        tasks = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=2)
        forward = ExperimentRunner(n_workers=2).run(tasks)
        backward = ExperimentRunner(n_workers=2).run(list(reversed(tasks)))
        assert _exact(backward) == _exact(list(reversed(forward)))

    def test_run_comparison_identical_serial_vs_parallel(self, grid_config):
        serial = compare(["S1", "S3"], METHODS, grid_config, train=False)
        parallel = compare(
            ["S1", "S3"], METHODS, grid_config, train=False, n_workers=3
        )
        assert {
            w: {m: r.full_dict() for m, r in per.items()} for w, per in serial.items()
        } == {
            w: {m: r.full_dict() for m, r in per.items()} for w, per in parallel.items()
        }

    @pytest.mark.slow
    def test_trained_comparison_identical_serial_vs_parallel(self, grid_config):
        """Full-grid variant including curriculum training (slow tier)."""
        serial = compare(["S2"], ["mrsch", "scalar_rl"], grid_config, train=True)
        parallel = compare(
            ["S2"], ["mrsch", "scalar_rl"], grid_config, train=True, n_workers=2
        )
        for method in ("mrsch", "scalar_rl"):
            assert (
                serial["S2"][method].full_dict() == parallel["S2"][method].full_dict()
            )


class TestRecallPathsIdentity:
    def test_cache_and_checkpoint_return_identical_metrics(self, grid_config, tmp_path):
        tasks = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=1)
        live = ExperimentRunner(
            n_workers=1,
            cache_dir=tmp_path / "cache",
            checkpoint_path=tmp_path / "ckpt.jsonl",
        ).run(tasks)
        assert all(r.source == "run" for r in live)

        from_ckpt = ExperimentRunner(
            n_workers=1, checkpoint_path=tmp_path / "ckpt.jsonl"
        ).run(tasks)
        assert all(r.source == "checkpoint" for r in from_ckpt)

        from_cache = ExperimentRunner(n_workers=2, cache_dir=tmp_path / "cache").run(
            tasks
        )
        assert all(r.source == "cache" for r in from_cache)

        assert _exact(live) == _exact(from_ckpt) == _exact(from_cache)

    def test_resume_after_interruption(self, grid_config, tmp_path):
        """A truncated checkpoint journal resumes to identical results."""
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=1)
        full = ExperimentRunner(n_workers=1, checkpoint_path=ckpt).run(tasks)

        lines = ckpt.read_text().strip().split("\n")
        assert len(lines) == len(tasks)
        # Simulate dying mid-grid, the final line torn mid-write.
        ckpt.write_text("\n".join(lines[:1]) + '\n{"key": "torn')
        resumed = ExperimentRunner(n_workers=1, checkpoint_path=ckpt).run(tasks)
        assert [r.source for r in resumed] == ["checkpoint", "run", "run"]
        assert _exact(resumed) == _exact(full)
        # The resume repaired the torn tail: the journal is fully valid
        # again and a third run restores every cell.
        third = ExperimentRunner(n_workers=1, checkpoint_path=ckpt).run(tasks)
        assert [r.source for r in third] == ["checkpoint"] * len(tasks)

    def test_cache_hits_are_journaled_and_checkpoints_backfill_cache(
        self, grid_config, tmp_path
    ):
        """The two recall layers stay symmetric after mixed-source runs."""
        tasks = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=1)
        ExperimentRunner(n_workers=1, cache_dir=tmp_path / "cache").run(tasks)

        # Cache-hit cells must still be journaled…
        mixed = ExperimentRunner(
            n_workers=1,
            cache_dir=tmp_path / "cache",
            checkpoint_path=tmp_path / "ckpt.jsonl",
        ).run(tasks)
        assert all(r.source == "cache" for r in mixed)
        journal_only = ExperimentRunner(
            n_workers=1, checkpoint_path=tmp_path / "ckpt.jsonl"
        ).run(tasks)
        assert all(r.source == "checkpoint" for r in journal_only)

        # …and checkpoint-restored cells must backfill a fresh cache.
        ExperimentRunner(
            n_workers=1,
            cache_dir=tmp_path / "cache2",
            checkpoint_path=tmp_path / "ckpt.jsonl",
        ).run(tasks)
        cache_only = ExperimentRunner(n_workers=1, cache_dir=tmp_path / "cache2").run(
            tasks
        )
        assert all(r.source == "cache" for r in cache_only)
        assert _exact(cache_only) == _exact(mixed)


class TestLabelRecall:
    def test_recalled_results_are_restamped_with_the_requesting_label(
        self, grid_config, tmp_path
    ):
        from dataclasses import replace

        tasks = grid_tasks(["heuristic"], ["S1"], grid_config)
        runner = ExperimentRunner(n_workers=1, cache_dir=tmp_path / "cache")
        first = runner.run(tasks)[0]
        assert first.display_name == "heuristic"

        relabelled = [replace(tasks[0], label="baseline")]
        second = runner.run(relabelled)[0]
        assert second.source == "cache"  # label change did not bust the key
        assert second.display_name == "baseline"
        assert second.metrics["S1"].full_dict() == first.metrics["S1"].full_dict()


class TestScenarioCompilation:
    """The declarative layer (PR 2) preserves the engine's guarantees:
    a scenario-compiled grid reproduces harness metrics bit-identically,
    and plugin schedulers run with zero edits to core modules."""

    def test_scenario_grid_reproduces_harness_metrics_bit_identically(
        self, grid_config
    ):
        """Compared against grid_tasks + the engine *directly* — not the
        ``api.compare``, which shares the scenario code path —
        so a compile regression cannot cancel out of both sides."""
        from repro.api import Scenario, run_scenario

        engine_results = ExperimentRunner(n_workers=1).run(
            grid_tasks(METHODS, ["S1", "S3"], grid_config)
        )
        engine_reports = pivot_results(engine_results)
        scenario = Scenario(
            methods=tuple(METHODS), workloads=("S1", "S3"), train=False,
            **Scenario.sections_for(grid_config),
        )
        result = run_scenario(scenario, n_workers=2)
        assert {
            w: {m: r.full_dict() for m, r in per.items()}
            for w, per in result.reports.items()
        } == {
            w: {m: engine_reports[w][m].full_dict() for m in METHODS}
            for w in ("S1", "S3")
        }
        # Same cells → same config hashes → the result cache keys match.
        assert [t.key() for t in result.tasks] == [r.key for r in engine_results]

    def test_scenario_file_round_trip_is_bit_identical(self, grid_config, tmp_path):
        """Loading the same scenario from disk twice (and from a dict
        with reordered keys) produces identical metrics and cache keys."""
        import json

        from repro.api import Scenario, run_scenario

        data = {
            "name": "round-trip",
            "methods": list(METHODS),
            "workloads": ["S1"],
            "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
            "seed": 97,
            "train": False,
            "config": {
                "n_jobs": 30,
                "window_size": 5,
                "curriculum_sets": [1, 1, 1],
                "jobs_per_trainset": 15,
                "ga": {"population": 6, "generations": 2},
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        from_file = run_scenario(str(path))
        from_dict = run_scenario(dict(reversed(list(data.items()))))
        assert _exact(from_file.results) == _exact(from_dict.results)
        assert (
            Scenario.from_file(path).config_hash()
            == Scenario.from_dict(data).config_hash()
        )

    def test_plugin_scheduler_runs_through_run_scenario(self, grid_config):
        """Registering a toy scheduler via decorator requires zero edits
        to core modules: it is immediately addressable from a scenario."""
        from repro.api import SCHEDULERS, Scenario, register_scheduler, run_scenario
        from repro.sched.base import WindowPolicyScheduler

        instantiated = []

        @register_scheduler("toy_lifo", description="newest-job-first toy policy")
        class ToyLIFOScheduler(WindowPolicyScheduler):
            name = "toy_lifo"

            def __init__(self, window_size=10, backfill=True):
                super().__init__(window_size=window_size, backfill=backfill)
                instantiated.append(self)

            def rank(self, window, ctx):
                return list(reversed(window))

        try:
            result = run_scenario(
                {"methods": ["toy_lifo", "heuristic"], "workloads": ["S1"],
                 "train": False, **Scenario.sections_for(grid_config)},
            )
            assert len(instantiated) == 1  # the toy policy really executed
            toy = result.reports["S1"]["toy_lifo"].full_dict()
            fcfs = result.reports["S1"]["heuristic"].full_dict()
            assert toy["n_jobs"] == fcfs["n_jobs"] == grid_config.n_jobs
        finally:
            SCHEDULERS.unregister("toy_lifo")


class TestPrivateQueue:
    """More than one worker and no ``queue_dir``: the grid runs on a
    private temporary queue, removed on success and kept on failure."""

    def test_a_killed_worker_costs_no_finished_cell(self, grid_config, tmp_path):
        """A queue worker killed mid-grid (OOM, SIGKILL, os._exit) costs
        no published cell: the cell it held takes a strike and is
        re-issued, the other worker and then the coordinator's inline
        drain finish the grid, and no cell runs again once published."""
        import os

        from repro.api import SCHEDULERS, register_scheduler

        parent = os.getpid()
        builds = tmp_path / "builds"
        builds.mkdir()

        @register_scheduler("dies_in_worker", description="os._exit in a child")
        def dies_in_worker(system, window_size=10, seed=None):
            if os.getpid() != parent:
                os._exit(3)
            return SCHEDULERS.get("heuristic").build(
                system, window_size=window_size, seed=seed
            )

        @register_scheduler("counted", description="heuristic, logging its builds")
        def counted(system, window_size=10, seed=None):
            with open(builds / str(seed), "a") as log:
                log.write(f"{os.getpid()}\n")
            return SCHEDULERS.get("heuristic").build(
                system, window_size=window_size, seed=seed
            )

        try:
            healthy = grid_tasks(["counted"], ["S1"], grid_config, n_seeds=3)
            serial = ExperimentRunner(n_workers=1).run(healthy)
            tasks = healthy + grid_tasks(["dies_in_worker"], ["S1"], grid_config)
            ckpt = tmp_path / "ckpt.jsonl"
            results = ExperimentRunner(
                n_workers=2, mp_start_method="fork", checkpoint_path=ckpt,
                lease_ttl=1.0,
            ).run(tasks)
            assert [r.source for r in results] == ["run"] * len(tasks)
            assert _exact(results[:-1]) == _exact(serial)
            # The killer finished only in the coordinator's own process.
            assert results[-1].worker_id.startswith("coord-")
            # After the serial build, the last build of each cell is the
            # one whose result was published: none ran after it.
            for result in results[:-1]:
                pids = (builds / str(result.seed)).read_text().split()
                assert pids[0] == str(parent) and len(pids) >= 2
                assert pids[-1] == str(result.worker_pid)
            # Every cell is journaled, so a re-run executes none.
            resumed = ExperimentRunner(n_workers=1, checkpoint_path=ckpt).run(tasks)
            assert [r.source for r in resumed] == ["checkpoint"] * len(tasks)
        finally:
            SCHEDULERS.unregister("dies_in_worker")
            SCHEDULERS.unregister("counted")

    def test_a_finished_run_leaves_tmpdir_as_it_found_it(
        self, grid_config, tmp_path, monkeypatch
    ):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        tasks = grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=2)
        runner = ExperimentRunner(n_workers=2)
        assert runner.dispatch == "queue"
        runner.run(tasks)
        assert list(scratch.iterdir()) == []

    def test_a_failed_dispatch_keeps_its_queue_and_a_rerun_resumes(
        self, grid_config, tmp_path, monkeypatch
    ):
        """The error names the kept directory; given as ``queue_dir``,
        it recalls the cells that finished and executes only the rest."""
        import tempfile

        from repro.dist import coordinator

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        tasks = grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=4)
        dispatch = coordinator.dispatch_tasks

        def dies_halfway(queue_dir, cells, **kwargs):
            dispatch(queue_dir, cells[:2], **kwargs)
            raise OSError("store went away")

        monkeypatch.setattr(coordinator, "dispatch_tasks", dies_halfway)
        with pytest.raises(RuntimeError, match="store went away") as exc:
            ExperimentRunner(n_workers=2, lease_ttl=5.0).run(tasks)
        (kept,) = tmp_path.glob("repro-queue-*")
        assert str(kept) in str(exc.value)

        monkeypatch.setattr(coordinator, "dispatch_tasks", dispatch)
        resumed = ExperimentRunner(n_workers=2, queue_dir=kept, lease_ttl=5.0).run(tasks)
        assert [r.source for r in resumed] == ["queue"] * 2 + ["run"] * 2
        assert _exact(resumed) == _exact(ExperimentRunner(n_workers=1).run(tasks))

    def test_progress_follows_the_frontier_snapshots(self, grid_config, tmp_path):
        """The coordinator reports the done count of each pass's
        frontier snapshot: it only grows, and ends at the grid."""
        from repro.dist import dispatch_tasks

        tasks = grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=3)
        seen: list[int] = []
        dispatch_tasks(tmp_path / "q", tasks, n_workers=2, on_progress=seen.append)
        assert seen == sorted(seen) and seen[-1] == len(tasks)

    def test_a_recalled_queue_cell_reports_its_source(self, grid_config, tmp_path):
        tasks = grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=2)
        first = ExperimentRunner(n_workers=2, queue_dir=tmp_path / "q").run(tasks)
        again = ExperimentRunner(n_workers=2, queue_dir=tmp_path / "q").run(tasks)
        assert [r.source for r in first] == ["run", "run"]
        assert [r.source for r in again] == ["queue", "queue"]
        assert _exact(again) == _exact(first)


class TestSeedSpawning:
    def test_grid_seeds_are_independent_and_stable(self, grid_config):
        tasks_a = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=3)
        tasks_b = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=3)
        assert [t.seed for t in tasks_a] == [t.seed for t in tasks_b]
        assert len({t.seed for t in tasks_a}) == 3

    def test_different_seeds_give_different_metrics(self, grid_config):
        results = ExperimentRunner(n_workers=1).run(
            grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=2)
        )
        a, b = (r.metrics["S1"] for r in results)
        assert a.full_dict() != b.full_dict()

    def test_pivot_separates_seeds(self, grid_config):
        results = ExperimentRunner(n_workers=1).run(
            grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=2)
        )
        pivoted = pivot_results(results)
        assert len(pivoted["S1"]) == 2
        assert all("@" in label for label in pivoted["S1"])
