"""Zero metric drift under faults: queue dispatch == serial, always.

The acceptance contract for the distributed layer (`repro.dist`) is that
coordination never touches results: an N-worker queue-dispatched grid —
even with workers SIGKILLed mid-run, heartbeats dropped, or every local
worker lost — produces ``TaskResult`` metrics bit-identical to a serial
``ExperimentRunner`` run. Re-issued cells are idempotent by construction
(config-hash keys + per-cell ``SeedSequence`` seeds), which these tests
pin with exact ``==`` float comparisons.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import time

import pytest

from repro.dist import (
    QueueWorker,
    WorkQueue,
    dispatch_tasks,
    ensure_enqueued,
)
from repro.dist.lease import LeaseBoard
from repro.dist.queue import MAX_ATTEMPTS
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig
from tests import _dist_faults
from tests._dist_faults import FaultPlan

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


class TestQueueDispatchIdentity:
    def test_two_workers_bit_identical_to_serial(
        self, grid_config, serial_exact, tmp_path
    ):
        tasks = _tasks(grid_config)
        results = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0
        )
        ordered = [results[t.key()] for t in tasks]
        assert _exact(ordered) == serial_exact
        # Provenance: every published cell names its executing worker.
        assert all(r.worker_id for r in ordered)
        assert all(r.hostname for r in ordered)

    def test_runner_queue_mode_feeds_cache_and_journal(
        self, grid_config, serial_exact, tmp_path
    ):
        """A queue run feeds the same cache/checkpoint layers."""
        tasks = _tasks(grid_config)
        runner = ExperimentRunner(
            n_workers=2,
            queue_dir=tmp_path / "q",
            lease_ttl=10.0,
            cache_dir=tmp_path / "cache",
            checkpoint_path=tmp_path / "ckpt.jsonl",
        )
        live = runner.run(tasks)
        assert _exact(live) == serial_exact
        assert all(r.source == "run" for r in live)
        # Checkpoint and cache recall both work afterwards, unchanged.
        from_ckpt = ExperimentRunner(
            n_workers=1, checkpoint_path=tmp_path / "ckpt.jsonl"
        ).run(tasks)
        assert all(r.source == "checkpoint" for r in from_ckpt)
        assert _exact(from_ckpt) == serial_exact

    def test_redispatch_resumes_half_finished_queue(
        self, grid_config, serial_exact, tmp_path
    ):
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        QueueWorker(queue, worker_id="early", max_cells=2).run()
        assert queue.status().done == 2
        results = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=1, lease_ttl=10.0
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the main thread after ``seconds``, for
    loops that never return when the defect under test is present."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _foreign_spec_queue(grid_config, path):
    """A queue whose one cell is queued under the key of ``queued`` with
    the spec of ``spec``, another cell."""
    queued, spec = _tasks(grid_config)[:2]
    queue = WorkQueue(path, lease_ttl=10.0)
    ensure_enqueued(queue, [spec], keys=[queued.key()])
    return queue, queued, spec


class TestSpecThatHashesToAnotherKey:
    """Run, such a spec would be published and marked done under its
    own key, leaving the queued cell claimable and its worker looping."""

    def test_the_worker_poisons_the_cell_and_drains(self, grid_config, tmp_path):
        queue, queued, spec = _foreign_spec_queue(grid_config, tmp_path / "q")
        with deadline(30):
            report = QueueWorker(queue, worker_id="strict").run()
        assert report.exit_reason == "drained"
        assert report.executed == []
        assert report.failed == [queued.key()] * MAX_ATTEMPTS
        assert queue.poisoned(queued.key())
        assert not queue.is_done(queued.key()) and not queue.is_done(spec.key())
        assert queue.merged_results() == {}
        error = queue.failure_errors(queued.key())[0]
        assert f"{queued.key()} hashes to {spec.key()}" in error

    def test_dispatch_raises_naming_the_mismatch(self, grid_config, tmp_path):
        queue, queued, spec = _foreign_spec_queue(grid_config, tmp_path / "q")
        with deadline(30), pytest.raises(
            RuntimeError, match=f"{queued.key()} hashes to {spec.key()}"
        ):
            dispatch_tasks(queue.root, [queued], n_workers=1, lease_ttl=10.0)


class TestCrashRecovery:
    def test_sigkilled_worker_cells_reissue_bit_identically(
        self, grid_config, serial_exact, tmp_path, monkeypatch
    ):
        """One worker SIGKILLs itself between execute and publish; its
        lease expires, the cell re-issues, and nothing drifts."""
        tasks = _tasks(grid_config)
        _dist_faults.install(
            {"sup0g0": FaultPlan(kill_before_publish=1)}, monkeypatch
        )
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.5,
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        # The dead worker published nothing for the killed cell — the
        # survivor (or coordinator) did.
        queue = WorkQueue(tmp_path / "q", create=False)
        assert len(queue.merged_results()) == len(tasks)

    def test_a_strangers_expired_lease_is_reaped_by_a_worker(
        self, grid_config, serial_exact, tmp_path
    ):
        """A lease left by an owner no local process knows expires and a
        worker reaps it on claim: only workers reap task leases."""
        tasks = _tasks(grid_config)
        key = tasks[0].key()
        assert LeaseBoard(tmp_path / "q" / "leases", ttl=0.5).try_claim(
            key, "ghost"
        )
        results = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        queue = WorkQueue(tmp_path / "q", create=False)
        assert queue.leases.read(key) is None
        reaps = sum(
            snap["counters"].get("lease.reaps", 0)
            for snap in queue.worker_metrics()
        )
        assert reaps >= 1

    def test_all_workers_dead_coordinator_drains_inline(
        self, grid_config, serial_exact, tmp_path, monkeypatch
    ):
        """Liveness: every local worker dies on its first claim, and the
        grid still terminates with bit-identical results."""
        tasks = _tasks(grid_config)
        _dist_faults.install({
            "sup0g0": FaultPlan(kill_after_claims=1),
            "sup1g0": FaultPlan(kill_after_claims=1),
        }, monkeypatch)
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.0,
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        # The coordinator's inline worker executed the remainder.
        queue = WorkQueue(tmp_path / "q", create=False)
        workers = {w["worker_id"] for w in queue.workers()}
        assert any(w.startswith("coord-") for w in workers)

    def test_heartbeat_loss_makes_a_straggler_not_a_drift(
        self, grid_config, serial_exact, tmp_path, monkeypatch
    ):
        """A worker that stops heartbeating loses its lease; the cell
        re-issues and the duplicate publish merges away by key."""
        tasks = _tasks(grid_config)
        _dist_faults.install({
            "sup0g0": FaultPlan(drop_heartbeats_after=1, delay_publish_s=2.5),
        }, monkeypatch)
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.0,
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact


class TestElasticJoin:
    def test_late_worker_joins_a_running_grid(
        self, grid_config, serial_exact, tmp_path
    ):
        """An external `repro work`-style worker started mid-grid claims
        cells alongside the coordinator's own workers."""
        tasks = _tasks(grid_config)
        queue_dir = tmp_path / "q"
        queue = WorkQueue(queue_dir, lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)

        context = multiprocessing.get_context("fork")
        joiner = context.Process(
            target=_external_worker, args=(str(queue_dir),), daemon=False
        )
        joiner.start()
        try:
            results = dispatch_tasks(
                queue_dir, tasks, n_workers=1, lease_ttl=10.0
            )
        finally:
            joiner.join(timeout=30.0)
            if joiner.is_alive():
                joiner.terminate()
        assert _exact([results[t.key()] for t in tasks]) == serial_exact

    def test_worker_leaves_without_losing_work(self, grid_config, tmp_path):
        """max_cells models a polite leave: finish the cell, exit; the
        remaining cells stay claimable."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        QueueWorker(queue, worker_id="leaver", max_cells=1).run()
        status = queue.status()
        assert status.done == 1
        assert status.leased_live == 0  # no lease left behind
        assert status.unclaimed == len(tasks) - 1


def _external_worker(queue_dir: str) -> None:
    # Late join: wait a beat so the coordinator's worker is already
    # claiming, then drain whatever is left.
    time.sleep(0.5)
    QueueWorker(
        WorkQueue(queue_dir, create=False), worker_id="elastic-joiner"
    ).run()
