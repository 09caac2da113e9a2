"""Unit tests for the distributed dispatch layer (repro.dist)."""

from __future__ import annotations

import os

import pytest

from repro.dist.faults import FaultInjector, FaultPlan
from repro.dist.lease import LeaseBoard
from repro.dist.manifest import ensure_enqueued
from repro.dist.queue import MAX_ATTEMPTS, WorkQueue
from repro.dist.store import RetryPolicy, Store
from repro.dist.worker import QueueWorker, new_worker_id
from repro.exp.records import ExperimentTask, TaskResult
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig
from repro.sim.metrics import MetricReport
from repro.utils.durable import append_line


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_tasks(n_seeds: int = 2) -> list[ExperimentTask]:
    return grid_tasks(["heuristic"], ["S1"], tiny_config(), n_seeds=n_seeds)


def enqueue(queue: WorkQueue, tasks: list[ExperimentTask]) -> list[str]:
    """Enqueue through the one path (a sealed manifest batch); returns
    the keys in task order."""
    ensure_enqueued(queue, tasks)
    return [task.key() for task in tasks]


def make_result(key: str, worker_id: str = "w0") -> TaskResult:
    return TaskResult(
        key=key,
        method="heuristic",
        seed=3,
        workloads=("S1",),
        metrics={"S1": MetricReport(
            utilization={"node": 0.5, "burst_buffer": 0.2},
            avg_wait=1.0, avg_slowdown=1.1, max_wait=2.0,
            p95_slowdown=1.5, makespan=100.0, n_jobs=15,
        )},
        wall_time=0.1,
        worker_id=worker_id,
    )


class TestLeaseBoard:
    def test_claim_is_exclusive(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30.0)
        assert board.try_claim("cell", "alice")
        assert not board.try_claim("cell", "bob")
        lease = board.read("cell")
        assert lease.owner == "alice" and not lease.expired()

    def test_renew_extends_only_for_owner(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30.0)
        board.try_claim("cell", "alice", now=1000.0)
        before = board.read("cell").expires_at
        assert board.renew("cell", "alice", now=1010.0)
        after = board.read("cell")
        assert after.expires_at > before and after.renewals == 1
        assert not board.renew("cell", "bob")
        assert board.read("cell").owner == "alice"

    def test_release_requires_ownership(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30.0)
        board.try_claim("cell", "alice")
        assert not board.release("cell", "bob")
        assert board.read("cell") is not None
        assert board.release("cell", "alice")
        assert board.read("cell") is None

    def test_reap_refuses_live_lease(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30.0)
        board.try_claim("cell", "alice")
        assert not board.reap("cell")
        assert board.read("cell").owner == "alice"

    def test_reap_retires_expired_lease_and_reopens_claim(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.001)
        board.try_claim("cell", "alice", now=0.0)  # expires immediately
        assert board.reap("cell", now=1.0)
        assert board.read("cell") is None
        assert board.try_claim("cell", "bob")

    def test_reap_is_single_winner(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.001)
        board.try_claim("cell", "alice", now=0.0)
        assert board.reap("cell", now=1.0)
        assert not board.reap("cell", now=1.0)  # already gone

    def test_torn_lease_ages_out(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.0001)
        (tmp_path / "cell.json").write_text('{"owner": "al')  # torn claim
        import time

        time.sleep(0.01)  # age past the ttl
        lease = board.read("cell")
        assert lease is not None and lease.expired()
        assert board.reap("cell")

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseBoard(tmp_path, ttl=0.0)


class TestWorkQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = tiny_tasks()
        manifest = ensure_enqueued(queue, tasks)
        assert ensure_enqueued(queue, tasks) == manifest
        assert queue.task_keys() == sorted(task.key() for task in tasks)
        assert len(list(queue.tasks_dir.iterdir())) == 1  # one batch file

    def test_task_spec_roundtrips_to_same_key(self, tmp_path):
        queue = WorkQueue(tmp_path)
        task = tiny_tasks()[0]
        (key,) = enqueue(queue, [task])
        loaded = queue.load_task(key)
        assert loaded.key() == key == task.key()
        assert loaded.config == task.config

    def test_publish_marks_done_and_merges(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        assert queue.is_done("k1")
        merged = queue.merged_results()
        assert merged["k1"].worker_id == "w0"

    def test_merge_collapses_duplicate_reissues(self, tmp_path):
        """A straggler's duplicate publish merges away by key."""
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        queue.publish("w1", make_result("k1", "w1"))
        merged = queue.merged_results()
        assert len(merged) == 1
        assert merged["k1"].worker_id == "w0"  # first shard wins

    def test_merge_skips_torn_tail(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1"))
        with open(queue.shard_path("w0"), "a") as handle:
            handle.write('{"key": "k2", "met')  # crash mid-append
        merged = queue.merged_results()
        assert set(merged) == {"k1"}

    def test_failure_counting_and_poisoning(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for attempt in range(MAX_ATTEMPTS):
            assert not queue.poisoned("k1")
            queue.record_failure("k1", f"w{attempt}", f"boom {attempt}")
        assert queue.poisoned("k1")
        assert queue.failures() == {"k1": MAX_ATTEMPTS}
        assert "boom 0" in queue.failure_errors("k1")[0]

    def test_meta_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.write_meta(trace_dir="/tmp/t", batch_episodes=4)
        assert queue.read_meta() == {"trace_dir": "/tmp/t", "batch_episodes": 4}
        assert WorkQueue(tmp_path / "empty").read_meta() == {}

    def test_create_false_requires_existing_queue(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="work queue"):
            WorkQueue(tmp_path / "nope", create=False)

    def test_status_counts(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=30.0)
        tasks = tiny_tasks()
        keys = enqueue(queue, tasks)
        queue.leases.try_claim(keys[0], "w0")
        status = queue.status()
        assert status.total == 2 and status.done == 0
        assert status.leased_live == 1 and status.unclaimed == 1
        assert status.pending == 2
        queue.publish("w0", make_result(keys[0]))
        queue.leases.release(keys[0], "w0")
        status = queue.status()
        assert status.done == 1 and status.pending == 1
        assert "cells: 1/2 done" in status.summary()

    def test_fsync_append_creates_durable_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_line(path, "one")
        append_line(path, "two")
        assert path.read_text() == "one\ntwo\n"


class TestFrontier:
    """``frontier()`` = enqueued keys − one done/ listing − keys with
    MAX_ATTEMPTS entries in one failed/ listing."""

    def _queue(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = grid_tasks(["heuristic"], ["S1"], tiny_config(), n_seeds=4)
        return queue, sorted(enqueue(queue, tasks))

    def _poison(self, queue, key):
        for attempt in range(MAX_ATTEMPTS):
            queue.record_failure(key, f"w{attempt}", "boom")

    def test_neither_done_nor_poisoned_is_claimable_in_sorted_order(
        self, tmp_path
    ):
        queue, keys = self._queue(tmp_path)
        assert queue.frontier() == (keys, [])

    def test_done_poisoned_both_and_neither(self, tmp_path):
        queue, (done, poisoned, both, neither) = self._queue(tmp_path)
        queue.mark_done(done, "w0")
        self._poison(queue, poisoned)
        self._poison(queue, both)
        queue.mark_done(both, "w0")  # a late straggler publish wins
        queue.record_failure(neither, "w0", "one strike is not poison")
        frontier = queue.frontier()
        assert frontier.claimable == [neither]
        assert frontier.poisoned == [poisoned]

    def test_agrees_with_the_per_key_predicates(self, tmp_path):
        queue, keys = self._queue(tmp_path)
        queue.mark_done(keys[0], "w0")
        self._poison(queue, keys[1])
        frontier = queue.frontier()
        assert frontier.claimable == [
            k for k in keys if not queue.is_done(k) and not queue.poisoned(k)
        ]
        assert frontier.poisoned == [
            k for k in keys if not queue.is_done(k) and queue.poisoned(k)
        ]

    def test_empty_queue_has_an_empty_frontier(self, tmp_path):
        assert WorkQueue(tmp_path).frontier() == ([], [])

    def test_key_finished_after_the_snapshot_is_released_by_the_recheck(
        self, tmp_path, monkeypatch
    ):
        """The snapshot may be stale by the time a key is claimed; the
        post-claim ``is_done`` re-check is what makes that safe."""
        queue, keys = self._queue(tmp_path)
        stale = queue.frontier()
        queue.publish("other", make_result(keys[0], "other"))  # finishes now
        monkeypatch.setattr(queue, "frontier", lambda: stale)
        executed = []
        worker = QueueWorker(
            queue, worker_id="late", max_cells=1,
            execute=lambda task, *a: executed.append(task.key())
            or make_result(task.key(), "late"),
        )
        assert worker._scan_once({}) is True
        assert executed == [keys[1]]  # keys[0] was skipped, not re-run
        assert queue.leases.read(keys[0]) is None  # claim released
        counters = worker.metrics.snapshot()["counters"]
        assert counters["queue.straggler_dedupes"] == 1


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(kill_after_claims=2, delay_publish_s=0.5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            FaultPlan.from_json('{"explode": true}')

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="kill_after_claims"):
            FaultPlan(kill_after_claims=0)
        with pytest.raises(ValueError, match="delay_publish_s"):
            FaultPlan(delay_publish_s=-1.0)

    def test_from_env(self, monkeypatch):
        from repro.dist.faults import FAULTS_ENV

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(kill_before_publish=1).to_json())
        assert FaultPlan.from_env() == FaultPlan(kill_before_publish=1)

    def test_heartbeat_dropping(self):
        injector = FaultInjector(FaultPlan(drop_heartbeats_after=2))
        assert injector.on_heartbeat() and injector.on_heartbeat()
        assert not injector.on_heartbeat()
        assert not injector.on_heartbeat()

    def test_no_plan_is_inert(self):
        injector = FaultInjector()
        injector.on_claim("k")
        injector.on_publish("k")
        assert injector.on_heartbeat()


class TestQueueWorker:
    def test_drains_queue_and_publishes_provenance(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = tiny_tasks()
        keys = enqueue(queue, tasks)
        report = QueueWorker(queue, worker_id="solo").run()
        assert sorted(report.executed) == sorted(keys)
        merged = queue.merged_results()
        for key in keys:
            assert merged[key].worker_id == "solo"
            assert merged[key].hostname
        assert queue.status().done == 2

    def test_max_cells_bounds_the_loop(self, tmp_path):
        queue = WorkQueue(tmp_path)
        enqueue(queue, tiny_tasks())
        report = QueueWorker(queue, worker_id="one", max_cells=1).run()
        assert report.cells_done == 1
        assert queue.status().done == 1

    def test_respects_live_foreign_lease(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=30.0)
        keys = enqueue(queue, tiny_tasks())
        queue.leases.try_claim(keys[0], "other")
        report = QueueWorker(queue, worker_id="me", max_cells=1).run()
        assert report.executed == [keys[1]]
        assert queue.leases.read(keys[0]).owner == "other"

    def test_reaps_expired_lease_and_reexecutes(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.001)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))
        queue.leases.try_claim(keys[0], "crashed", now=0.0)
        report = QueueWorker(queue, worker_id="rescuer").run()
        assert report.reaped == keys and report.executed == keys

    def test_failing_cell_is_retried_then_poisoned(self, tmp_path):
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))

        def explode(task, *args):
            raise RuntimeError("scripted failure")

        report = QueueWorker(queue, worker_id="doomed", execute=explode).run()
        assert report.failed == keys * MAX_ATTEMPTS
        assert queue.poisoned(keys[0])
        assert not queue.is_done(keys[0])
        assert "scripted failure" in queue.failure_errors(keys[0])[0]

    def test_worker_ids_are_unique(self):
        assert new_worker_id() != new_worker_id()
        assert str(os.getpid()) in new_worker_id()


def storm_store(plan: FaultPlan, **kwargs) -> Store:
    """A fault-scripted store whose backoffs never actually sleep."""
    kwargs.setdefault("retry", RetryPolicy(seed="test"))
    return Store(faults=FaultInjector(plan), sleep=lambda _s: None, **kwargs)


class TestLeaseStatFlake:
    def test_stat_flake_on_torn_lease_reads_as_still_claimed(self, tmp_path):
        """A store flake must never answer 'unclaimed' for a claimed key.

        The conservative sentinel delays re-issue by one ttl; the
        alternative (None) invites a second claim on a held cell.
        """
        plan = FaultPlan(io_faults=[{"op": "stat", "errno": "EIO", "count": 0}])
        board = LeaseBoard(
            tmp_path, ttl=30.0,
            store=storm_store(plan, retry=RetryPolicy(max_retries=1, seed="t")),
        )
        (tmp_path / "cell.json").write_text('{"owner": "al')  # torn claim
        lease = board.read("cell")
        assert lease is not None
        assert lease.owner == "?unreadable"
        assert not lease.expired()

    def test_torn_lease_without_flake_still_ages_out(self, tmp_path):
        """The sentinel path does not regress normal torn-claim aging."""
        import time

        board = LeaseBoard(tmp_path, ttl=0.0001)
        (tmp_path / "cell.json").write_text('{"owner": "al')
        time.sleep(0.01)
        lease = board.read("cell")
        assert lease is not None and lease.expired()


class TestClockSkewClamp:
    def test_future_last_seen_reports_zero_age(self, tmp_path):
        import time

        queue = WorkQueue(tmp_path)
        queue.register_worker("skewed")
        path = queue.workers_dir / "skewed.json"
        doc = __import__("json").loads(path.read_text())
        doc["last_seen"] = time.time() + 3600.0  # writer's clock runs ahead
        path.write_text(__import__("json").dumps(doc))
        status = queue.status()
        assert status.workers[0]["age_s"] == 0.0
        assert "seen   0.0s ago" in status.summary()


class TestQuarantine:
    def test_checksum_mismatch_quarantines_not_merges(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        queue.publish("w0", make_result("k2", "w0"))
        shard = queue.shard_path("w0")
        # Flip one byte inside the *first* (interior) record.
        lines = shard.read_text().splitlines()
        lines[0] = lines[0].replace('"avg_wait": 1.0', '"avg_wait": 9.9')
        shard.write_text("\n".join(lines) + "\n")
        merged = queue.merged_results()
        assert set(merged) == {"k2"}  # the corrupt record never merges
        records = queue.quarantined()
        assert len(records) == 1
        assert records[0]["reason"] == "journal line checksum mismatch"
        assert records[0]["origin"] == shard.name
        assert records[0]["line_no"] == 1
        assert records[0]["detected_by"]
        assert queue.status().quarantined == 1
        assert "QUARANTINE: 1" in queue.status().summary()

    def test_interior_unsealed_garbage_is_quarantined(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        shard = queue.shard_path("w0")
        good = shard.read_text()
        shard.write_text("not json at all\n" + good)
        merged = queue.merged_results()
        assert set(merged) == {"k1"}
        assert queue.quarantine_count() == 1

    def test_torn_tail_is_still_skipped_silently(self, tmp_path):
        """A crashed writer's torn tail is re-issue territory, not
        corruption — it must NOT land in quarantine."""
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        with open(queue.shard_path("w0"), "a") as handle:
            handle.write('{"key": "k2", "met')
        merged = queue.merged_results()
        assert set(merged) == {"k1"}
        assert queue.quarantine_count() == 0

    def test_quarantine_is_idempotent_across_remerges(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        shard = queue.shard_path("w0")
        shard.write_text("garbage-line\n" + shard.read_text())
        queue.merged_results()
        queue.merged_results()
        assert queue.quarantine_count() == 1

    def test_corrupt_task_spec_is_detected_before_execution(self, tmp_path):
        queue = WorkQueue(tmp_path)
        (key,) = enqueue(queue, tiny_tasks(n_seeds=1))
        (batch,) = queue.tasks_dir.glob("batch-*.jsonl")
        # bit-flip without breaking JSON
        batch.write_text(batch.read_text().replace('"seed": ', '"seed": 1'))
        fresh = WorkQueue(tmp_path, create=False)  # cold batch cache
        with pytest.raises(FileNotFoundError, match="no task spec"):
            fresh.load_task(key)
        assert fresh.quarantine_count() == 1
        assert "checksum" in fresh.quarantined()[0]["reason"]

    def test_legacy_unsealed_records_still_merge(self, tmp_path):
        """Pre-seam shards (no checksum suffix) keep working."""
        import json as _json

        queue = WorkQueue(tmp_path)
        append_line(
            queue.shard_path("old"),
            _json.dumps(make_result("k1", "old").to_json_dict(), sort_keys=True),
        )
        merged = queue.merged_results()
        assert set(merged) == {"k1"}
        assert queue.quarantine_count() == 0


class TestCellTimeout:
    def test_hung_cell_is_abandoned_and_poisoned(self, tmp_path):
        import threading

        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))
        release = threading.Event()

        def hang(task, *args):
            release.wait(30.0)  # a simulation that never returns

        worker = QueueWorker(
            queue, worker_id="watchdogged", cell_timeout_s=0.1,
            poll_interval=0.01, execute=hang,
        )
        report = worker.run()
        release.set()  # unblock the abandoned daemon threads
        assert report.timed_out == keys * MAX_ATTEMPTS
        assert queue.poisoned(keys[0])
        assert not queue.is_done(keys[0])
        assert queue.leases.read(keys[0]) is None  # lease released
        assert "cell_timeout_s" in queue.failure_errors(keys[0])[0]

    def test_timeout_from_queue_meta(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.write_meta(cell_timeout_s=12.5)
        worker = QueueWorker(queue, worker_id="late-joiner")
        worker.run()  # empty queue: resolves meta then drains
        assert worker.cell_timeout_s == 12.5

    def test_fast_cell_under_deadline_completes_normally(self, tmp_path):
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))
        report = QueueWorker(
            queue, worker_id="fast", cell_timeout_s=120.0
        ).run()
        assert report.executed == keys and not report.timed_out
        assert queue.is_done(keys[0])


class TestDegradedMode:
    def _worker(self, queue, plan, **kwargs):
        worker = QueueWorker(
            queue, worker_id="degraded", poll_interval=0.01,
            faults=FaultInjector(plan),
            spool_dir=queue.root.parent / "spool",
            **kwargs,
        )
        # Re-seat the store so the scripted faults flow through it but
        # the backoff sleeps stay instant.
        worker.store._sleep = lambda _s: None
        return worker

    def test_publish_failure_spools_then_flushes_on_recovery(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        keys = enqueue(queue, tiny_tasks())
        # ENOSPC on the first two journal appends, then the volume
        # "recovers": publish #1 fails + the first flush try fails, the
        # second flush succeeds.
        plan = FaultPlan(io_faults=[
            {"op": "append", "path": "results/*", "errno": "ENOSPC",
             "count": 2},
        ])
        report = self._worker(queue, plan).run()
        assert len(report.spooled) == 1
        assert sorted(report.executed) == sorted(keys)
        merged = queue.merged_results()
        assert set(merged) == set(keys)  # nothing lost to the outage
        assert not (queue.root.parent / "spool" / "results.jsonl").exists()

    def test_store_that_stays_down_exits_actionably(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        enqueue(queue, tiny_tasks(n_seeds=1))
        plan = FaultPlan(io_faults=[
            {"op": "append", "path": "results/*", "errno": "ENOSPC",
             "count": 0},
        ])
        worker = self._worker(queue, plan)
        with pytest.raises(RuntimeError, match="spooled"):
            worker.run()
        # The finished result survived on local disk, sealed.
        spooled = (queue.root.parent / "spool" / "results.jsonl").read_text()
        from repro.utils.durable import unseal_line

        body, verdict = unseal_line(spooled.strip())
        assert verdict is True
        assert __import__("json").loads(body)["key"]

    def test_heartbeat_survives_store_flakes(self, tmp_path):
        from repro.dist.worker import Heartbeat

        queue = WorkQueue(tmp_path / "q")
        queue.leases.try_claim("cell", "hb-owner")
        plan = FaultPlan(io_faults=[
            {"op": "write", "path": "leases/*", "errno": "EIO", "count": 1},
        ])
        queue.use_store(storm_store(plan, retry=RetryPolicy(max_retries=0, seed="h")))
        heartbeat = Heartbeat(
            queue, "cell", "hb-owner", interval=0.01,
            faults=FaultInjector(),
        )
        heartbeat.start()
        import time

        time.sleep(0.2)
        heartbeat.stop()
        # The first renewal errored (EIO, no retries) but the thread
        # kept beating and later renewals extended the lease.
        assert heartbeat.owned
        assert queue.leases.read("cell").renewals >= 1
