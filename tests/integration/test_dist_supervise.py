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


# -- group commit under supervision -------------------------------------------


def _heuristic_tasks(grid_config, n: int):
    return grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=n)


def _strikes(queue) -> dict:
    return {k: queue.failure_count(k) for k in queue.task_keys()}


def _commit_sizes(queue, worker_prefix: str) -> dict:
    (snapshot,) = [
        m for m in queue.worker_metrics()
        if m["worker_id"].startswith(worker_prefix)
    ]
    return snapshot["histograms"]["queue.commit_cells"]


@pytest.fixture
def no_age_commits(monkeypatch):
    """Batches close on size alone, so a slow CI box cannot shrink them
    (forked workers inherit the patched constant)."""
    import repro.dist.worker as worker_module

    monkeypatch.setattr(worker_module, "COMMIT_AGE_S", 60.0)


class TestGroupCommitCrash:
    def test_kill_with_five_pending_strikes_and_reissues_all_five(
        self, grid_config, tmp_path, no_age_commits
    ):
        """SIGKILL just before the fifth result would join the batch:
        the worker dies holding five leases, nothing of theirs on disk.
        Each takes one strike, re-issues, and — having a strike on
        record — commits alone the second time."""
        tasks = _heuristic_tasks(grid_config, 8)
        inline = _exact(ExperimentRunner(n_workers=1).run(tasks))
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        ensure_enqueued(queue, tasks)
        supervisor = WorkerSupervisor(
            queue,
            n_workers=1,
            backoff_base_s=0.05,
            worker_poll_interval=0.02,
            spawn_faults=[[FaultPlan(kill_before_publish=5), None]],
        )
        report = supervisor.run()
        assert report.exit_reason == "drained"
        assert (report.crashes, report.spawned, report.strikes) == (1, 2, 5)
        assert sorted(_strikes(queue).values()) == [0, 0, 0, 1, 1, 1, 1, 1]
        merged = queue.merged_results()
        assert _exact([merged[t.key()] for t in tasks]) == inline
        assert all(r.worker_id.startswith("sup0g1-") for r in merged.values())
        assert queue.status().pending == 0 and queue.leases.leases() == []
        # The respawn: five commits of one, the other three batched.
        sizes = _commit_sizes(queue, "sup0g1-")
        assert sizes["total"] == 8 and sizes["count"] >= 6
        assert sizes["min"] == 1 and sizes["max"] <= 3

    def test_worker_killing_cell_poisons_alone_batch_mates_take_one_strike(
        self, grid_config, tmp_path, monkeypatch, no_age_commits
    ):
        """The eighth cell a worker runs kills it, every time. The first
        crash strikes its seven pending batch-mates too; from then on
        the killer runs with nothing else held, so it alone reaches
        MAX_ATTEMPTS and the seven finish one strike each."""
        import os
        import signal

        import repro.dist.worker as worker_module
        from repro.dist.queue import MAX_ATTEMPTS
        from repro.exp.tasks import execute_task

        tasks = _heuristic_tasks(grid_config, 12)
        inline = {r[0]: r for r in _exact(ExperimentRunner(n_workers=1).run(tasks))}
        ran, killer = tmp_path / "ran", tmp_path / "killer"

        def execute(task, *args):
            key = task.key()
            if not killer.exists():
                with open(ran, "a") as handle:
                    handle.write(key + "\n")
                if len(ran.read_text().split()) == 8:
                    killer.write_text(key)
            if killer.exists() and killer.read_text() == key:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute_task(task, *args)

        monkeypatch.setattr(worker_module, "execute_task", execute)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        ensure_enqueued(queue, tasks)
        supervisor = WorkerSupervisor(
            queue, n_workers=1, backoff_base_s=0.02, backoff_max_s=0.1,
            worker_poll_interval=0.02,
        )
        report = supervisor.run()
        assert report.exit_reason == "drained"
        assert report.crashes == MAX_ATTEMPTS
        *mates, victim = ran.read_text().split()
        assert victim == killer.read_text() and len(mates) == 7
        strikes = _strikes(queue)
        assert strikes.pop(victim) == MAX_ATTEMPTS and queue.poisoned(victim)
        assert {k for k, n in strikes.items() if n} == set(mates)
        assert set(strikes.values()) == {0, 1}
        assert report.strikes == 7 + MAX_ATTEMPTS
        # Everything but the victim finished, bit-identical to inline.
        del inline[victim]
        merged = _exact(queue.merged_results().values())
        assert {r[0]: r for r in merged} == inline


class TestCoordinatorWakesOnExit:
    def test_dispatch_returns_without_waiting_out_a_poll(
        self, grid_config, tmp_path, monkeypatch
    ):
        """With the coordinator's poll stretched to 5 s, a 16-cell grid
        still returns promptly: the wait is on worker exits."""
        import time

        import repro.dist.coordinator as coordinator

        monkeypatch.setattr(coordinator, "POLL_INTERVAL_S", 5.0)
        tasks = _heuristic_tasks(grid_config, 16)
        t0 = time.perf_counter()
        results = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0
        )
        elapsed = time.perf_counter() - t0
        assert len(results) == 16
        assert elapsed < 2.5
