"""Integration tests for worker supervision (repro.dist.supervise):
crash-respawn convergence, the crash-loop circuit breaker, strike
accounting, and the elastic worker's run-complete exit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dist import (
    FaultPlan,
    QueueWorker,
    WorkQueue,
    WorkerSupervisor,
    dispatch_tasks,
    ensure_enqueued,
)
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig

METHODS = ["heuristic", "scalar_rl"]


@pytest.fixture(scope="module")
def grid_config() -> ExperimentConfig:
    return ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3
    )


@pytest.fixture(scope="module")
def serial_exact(grid_config):
    tasks = grid_tasks(METHODS, ["S1"], grid_config, n_seeds=2)
    results = ExperimentRunner(n_workers=1).run(tasks)
    return _exact(results)


def _tasks(grid_config):
    return grid_tasks(METHODS, ["S1"], grid_config, n_seeds=2)


def _exact(results):
    return [(r.key, r.seed, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in results]


class TestWorkerSupervisor:
    def test_crash_respawn_converges_bit_identically(
        self, grid_config, serial_exact, tmp_path
    ):
        """Incarnation 1 SIGKILLs itself holding a lease; the respawn
        (fresh worker id) drains the queue and the merge is exact."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        supervisor = WorkerSupervisor(
            queue,
            n_workers=1,
            backoff_base_s=0.05,
            worker_poll_interval=0.02,
            spawn_faults=[[FaultPlan(kill_after_claims=1), None]],
        )
        report = supervisor.run()
        assert report.exit_reason == "drained"
        assert report.crashes == 1
        assert report.spawned == 2  # the respawn happened
        # The crash struck the held cell: one failure attempt recorded,
        # lease force-released for immediate re-issue.
        assert report.strikes == 1
        assert sum(queue.failure_count(k) for k in queue.task_keys()) == 1
        merged = queue.merged_results()
        assert _exact([merged[t.key()] for t in tasks]) == serial_exact
        assert queue.status().pending == 0

    def test_crash_loop_opens_circuit_breaker(self, grid_config, tmp_path):
        """A worker that dies instantly every incarnation must open the
        breaker after max_crashes, not burn the grid's attempt budget."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        crash_every_time = [FaultPlan(kill_after_claims=1)] * 5
        supervisor = WorkerSupervisor(
            queue,
            n_workers=1,
            backoff_base_s=0.02,
            backoff_max_s=0.1,
            max_crashes=2,
            worker_poll_interval=0.02,
            spawn_faults=[crash_every_time],
        )
        report = supervisor.run()
        assert report.exit_reason == "circuit_open"
        assert report.circuit_open == [0]
        assert report.crashes == 2  # stopped at the breaker, not at 5
        assert report.spawned == 2
        # Each crash fed the poison-pill accounting.
        assert report.strikes == 2
        assert queue.status().pending == len(tasks)  # work left for others

    def test_empty_queue_drains_immediately(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        supervisor = WorkerSupervisor(queue, n_workers=2)
        report = supervisor.run()
        assert report.exit_reason == "drained"
        assert report.spawned == 0  # never spawned into a drained queue

    def test_dispatch_with_supervision_is_bit_identical(
        self, grid_config, serial_exact, tmp_path
    ):
        """The coordinator path: dispatch_tasks(supervise=True) respawns
        a SIGKILLed worker instead of leaning on the inline fallback,
        and the merged grid is exact."""
        tasks = _tasks(grid_config)
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.5,
            supervise=True,
            worker_faults=[FaultPlan(kill_after_claims=1), None],
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        queue = WorkQueue(tmp_path / "q", create=False)
        assert queue.status().pending == 0
        # The run manifest completed (satellite: elastic workers key
        # their exit off this).
        manifest = queue.read_manifest()
        assert manifest is not None and manifest.complete


class TestElasticWorkerExit:
    def test_wait_worker_exits_on_complete_manifest(
        self, grid_config, tmp_path
    ):
        """--wait workers exit with a distinct status once the run
        manifest says complete, instead of polling forever."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        drain = QueueWorker(queue, worker_id="drain", poll_interval=0.01)
        assert drain.run().exit_reason == "drained"
        manifest = queue.read_manifest()
        queue.write_manifest(replace(manifest, state="complete"))
        elastic = QueueWorker(
            queue, worker_id="elastic", poll_interval=0.01,
            wait_for_work=True,
        )
        report = elastic.run()
        assert report.exit_reason == "run_complete"
        assert report.executed == []

    def test_wait_worker_drains_before_honoring_complete(
        self, grid_config, serial_exact, tmp_path
    ):
        """A complete manifest never truncates real work: cells still
        pending are executed before the exit check can fire."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        manifest = ensure_enqueued(queue, tasks)
        # Adversarial: manifest flipped complete while cells are pending.
        queue.write_manifest(replace(manifest, state="complete"))
        elastic = QueueWorker(
            queue, worker_id="eager", poll_interval=0.01,
            wait_for_work=True,
        )
        report = elastic.run()
        assert report.exit_reason == "run_complete"
        assert len(report.executed) == len(tasks)
        merged = queue.merged_results()
        assert _exact([merged[t.key()] for t in tasks]) == serial_exact
