"""Unit tests for the distributed dispatch layer (repro.dist)."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import tempfile

import pytest

import repro.dist.lease as lease_module
import repro.exp.records as records
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
from tests._dist_faults import FaultInjector, FaultPlan, FaultStore, FaultyWorker


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


def make_worker(queue, execute, cls=QueueWorker, **kwargs) -> QueueWorker:
    """A worker whose cells run ``execute`` in place of ``execute_task``."""
    worker = cls(queue, **kwargs)
    worker.execute = execute
    return worker


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
        assert board.renew("alice", ["cell"], now=1010.0) == set()
        after = board.read("cell")
        assert after.expires_at > before
        assert board.renew("bob", ["cell"]) == {"cell"}
        assert board.read("cell").owner == "alice"
        assert board.read("cell").expires_at == after.expires_at

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

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf")])
    def test_rejects_nonfinite_ttl(self, tmp_path, ttl):
        """A NaN ttl passed ``ttl <= 0`` and no lease ever expired."""
        with pytest.raises(ValueError, match="finite"):
            LeaseBoard(tmp_path, ttl=ttl)


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

    def test_load_task_lists_tasks_only_on_a_cache_miss(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path)
        first = enqueue(queue, tiny_tasks(n_seeds=2))
        listings = []
        batches = queue._batches
        monkeypatch.setattr(queue, "_batches", lambda: listings.append(1) or batches())
        assert queue.load_task(first[0]).key() == first[0]
        assert len(listings) == 1  # a cold cache lists tasks/ once
        assert [queue.load_task(key).key() for key in first] == first
        assert len(listings) == 1  # a parsed batch answers without listing
        later = enqueue(queue, grid_tasks(["heuristic"], ["S2"], tiny_config(), n_seeds=1))
        listed = len(listings)
        assert queue.load_task(later[0]).key() == later[0]  # the next generation
        assert len(listings) == listed + 1
        with pytest.raises(FileNotFoundError, match="no task spec"):
            queue.load_task("0" * 24)

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

    def test_failure_count_reads_only_the_keys_own_records(self, tmp_path):
        queue = WorkQueue(tmp_path)
        assert queue.failure_count("k1") == 0
        for key, worker in [("k1", "w0"), ("k1", "w1"), ("k12", "w0"), ("k2", "w0")]:
            queue.record_failure(key, worker, f"{key} failed on {worker}")
        (queue.failed_dir / ".k1-3-w2.tmp").write_text("{")  # a write in flight
        (queue.failed_dir / "k1-notes.txt").write_text("")
        for key in ("k1", "k12", "k2", "k3"):
            globbed = sum(1 for _ in queue.failed_dir.glob(f"{key}-*.json"))
            assert queue.failure_count(key) == globbed
        assert queue.failure_count("k1") == 2
        assert queue.failure_errors("k1") == ["k1 failed on w0", "k1 failed on w1"]
        queue.failed_dir.rename(tmp_path / "moved")
        assert queue.failure_count("k1") == 0 and queue.failure_errors("k1") == []

    def test_listings_name_what_a_pathlib_glob_named(self, tmp_path, monkeypatch):
        """``done_keys``, ``failures`` and the batch scan list with
        ``os.listdir``; every name the glob gave, and no other, in its order."""
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=3))
        ensure_enqueued(queue, grid_tasks(["heuristic"], ["S2"], tiny_config(), n_seeds=2))
        queue.mark_done(keys[0], "w0")
        queue.record_failure(keys[1], "w0", "boom")
        queue.record_failure(keys[1], "w1", "boom")
        for directory in (queue.done_dir, queue.failed_dir, queue.tasks_dir):
            (directory / ".k9-1-w0.tmp").write_text("{")  # a write in flight
            (directory / ".k8-1-w0.json").write_text("{}")  # glob names dot-files
            (directory / "odd.json").write_text("{}")  # no dash
            (directory / "notes.txt").write_text("")
            (directory / "sub.json").mkdir()
        (queue.tasks_dir / ".batch-9.jsonl").write_text("")
        (queue.tasks_dir / "batch-9.jsonl.tmp").write_text("")

        assert queue.done_keys() == {p.stem for p in queue.done_dir.glob("*.json")}
        globbed: dict[str, int] = {}
        for path in queue.failed_dir.glob("*.json"):
            key = path.stem.split("-")[0]
            globbed[key] = globbed.get(key, 0) + 1
        assert queue.failures() == globbed and globbed[keys[1]] == 2

        loaded = []
        monkeypatch.setattr(queue, "_load_batch", lambda path: loaded.append(path) or {})
        queue._batches()
        assert loaded == sorted(queue.tasks_dir.glob("batch-*.jsonl"))
        assert len(loaded) == 2

        empty = WorkQueue(tmp_path / "fresh")
        for directory in (empty.done_dir, empty.failed_dir, empty.tasks_dir):
            directory.rmdir()
        assert empty.done_keys() == set() and empty.failures() == {}
        assert empty._batches() == []

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
        """The snapshot ages while a pass walks it. A key finished before
        the walk reaches it is skipped by a stat; one finished between
        that stat and the claim is caught by the post-claim ``is_done``
        re-check. Neither is re-run, neither keeps a lease."""
        queue, keys = self._queue(tmp_path)
        stale = queue.frontier()
        early, raced = keys[0], keys[2]
        queue.publish("other", make_result(early, "other"))  # finishes now
        monkeypatch.setattr(queue, "frontier", lambda: stale)
        claim = queue.leases.try_claim

        def racing_claim(key, owner, now=None):
            if key == raced and not queue.is_done(raced):
                # lands after the worker's stat, before its claim
                queue.publish("other", make_result(raced, "other"))
            return claim(key, owner, now)

        monkeypatch.setattr(queue.leases, "try_claim", racing_claim)
        executed = []
        worker = make_worker(
            queue,
            lambda task, *a: executed.append(task.key())
            or make_result(task.key(), "late"),
            worker_id="late",
        )
        assert worker._scan_once() is True
        assert sorted(executed) == sorted(set(keys) - {early, raced})
        assert queue.leases.leases() == []  # every claim released
        merged = queue.merged_results()
        assert merged[early].worker_id == merged[raced].worker_id == "other"
        counters = worker.metrics.snapshot()["counters"]
        assert counters["queue.straggler_dedupes"] == 1  # raced, not early


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

        report = make_worker(queue, explode, worker_id="doomed").run()
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
    return FaultStore(FaultInjector(plan), sleep=lambda _s: None, **kwargs)


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


def traced_key(task: ExperimentTask) -> str:
    """The key a task once had with ``capture_traces`` set: the flag
    was hashed into its semantic fields only when true."""
    fields = {f: getattr(task, f) for f in records._SEMANTIC_FIELDS}
    fields["capture_traces"] = True
    payload = records.canonical_json(
        {"schema": records.TASK_SCHEMA_VERSION, "task": fields}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


class TestSpecKeyCheck:
    """``load_task`` hands out only a spec that hashes to the key it was
    claimed under; anything else would be published as another cell."""

    @pytest.mark.parametrize("change", [
        {"seed": 4},
        {"method": "fcfs"},
        {"workloads": ("S2",)},
        {"train": True},
        {"case_study": True},
        {"extra": (("backfill", False),)},
        {"config": tiny_config(n_jobs=16)},
    ], ids=lambda change: next(iter(change)))
    def test_a_spec_under_another_cells_key_is_refused(self, tmp_path, change):
        queued = tiny_tasks(n_seeds=1)[0]
        spec = dataclasses.replace(queued, **change)
        assert spec.key() != queued.key()
        queue = WorkQueue(tmp_path)
        ensure_enqueued(queue, [spec], keys=[queued.key()])
        with pytest.raises(ValueError) as exc:
            queue.load_task(queued.key())
        assert f"{queued.key()} hashes to {spec.key()}" in str(exc.value)

    def test_a_relabelled_spec_still_loads(self, tmp_path):
        """``label`` is display provenance, outside the key."""
        queued = tiny_tasks(n_seeds=1)[0]
        spec = dataclasses.replace(queued, label="renamed")
        queue = WorkQueue(tmp_path)
        ensure_enqueued(queue, [spec], keys=[queued.key()])
        assert queue.load_task(queued.key()) == spec

    def test_a_spec_queued_with_capture_traces_is_refused(self, tmp_path, monkeypatch):
        """An older enqueue wrote traced cells with the flag in the spec
        and the flag in the key; the spec now loads as the plain cell,
        whose key is another one."""
        task = tiny_tasks(n_seeds=1)[0]
        plain = ExperimentTask.to_json_dict
        monkeypatch.setattr(
            ExperimentTask, "to_json_dict",
            lambda self: {**plain(self), "capture_traces": True},
        )
        queue = WorkQueue(tmp_path)
        ensure_enqueued(queue, [task], keys=[traced_key(task)])
        with pytest.raises(ValueError, match=f"hashes to {task.key()}"):
            queue.load_task(traced_key(task))

    def test_an_untraced_spec_of_an_older_enqueue_still_loads(self, tmp_path):
        """Keys of untraced cells never hashed the flag, so they stand."""
        task = tiny_tasks(n_seeds=1)[0]
        queue = WorkQueue(tmp_path)
        (key,) = enqueue(queue, [task])
        (batch,) = queue.tasks_dir.glob("batch-*.jsonl")
        assert '"capture_traces"' not in batch.read_text()
        assert queue.load_task(key) == task

    def test_an_unknown_key_is_not_found(self, tmp_path):
        queue = WorkQueue(tmp_path)
        enqueue(queue, tiny_tasks(n_seeds=1))
        with pytest.raises(FileNotFoundError, match="no task spec"):
            queue.load_task("0" * 24)


class TestOlderExecutionContext:
    """An older enqueue published ``trace_dir``, ``trace_compact`` and
    ``batch_episodes`` in the queue's meta and the manifest context;
    workers ignore them and drain."""

    @pytest.mark.parametrize("name,value", [
        ("trace_dir", "traces"),
        ("trace_compact", True),
        ("batch_episodes", 4),
    ])
    def test_a_queue_carrying_it_drains(self, tmp_path, name, value):
        queue = WorkQueue(tmp_path)
        tasks = tiny_tasks()
        queue.write_meta(**{name: value})
        manifest = ensure_enqueued(queue, tasks, context={name: value})
        assert manifest.context == {name: value}
        report = make_worker(
            queue, lambda task: make_result(task.key()), worker_id="w0"
        ).run()
        assert report.exit_reason == "drained"
        assert sorted(report.executed) == sorted(t.key() for t in tasks)
        assert set(queue.merged_results()) == {t.key() for t in tasks}


class TestCellTimeout:
    def test_hung_cell_is_abandoned_and_poisoned(self, tmp_path):
        import threading

        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))
        release = threading.Event()

        def hang(task, *args):
            release.wait(30.0)  # a simulation that never returns

        worker = make_worker(
            queue, hang, worker_id="watchdogged", cell_timeout_s=0.1,
            poll_interval=0.01,
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
        worker = FaultyWorker(
            queue, worker_id="degraded", poll_interval=0.01, plan=plan,
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
        worker = self._worker(queue, plan)
        report = worker.run()
        # However many results rode the refused append, every one of
        # them was spooled, and every one flushed.
        assert report.spooled and set(report.spooled) <= set(keys)
        counters = worker.metrics.snapshot()["counters"]
        assert counters["store.spool_flushed"] == len(report.spooled)
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

        import time

        queue = WorkQueue(tmp_path / "q")
        queue.leases.try_claim("cell", "hb-owner", now=time.time() - 5.0)
        before = queue.leases.read("cell").expires_at
        plan = FaultPlan(io_faults=[
            {"op": "touch", "path": "leases/*", "errno": "EIO", "count": 1},
        ])
        queue.use_store(storm_store(plan, retry=RetryPolicy(max_retries=0, seed="h")))
        heartbeat = Heartbeat(queue, "cell", "hb-owner", interval=0.01)
        heartbeat.start()
        time.sleep(0.2)
        heartbeat.stop()
        # The first renewal errored (EIO, no retries) but the thread
        # kept beating and later renewals extended the lease.
        assert heartbeat.owned
        assert heartbeat.metrics.snapshot()["counters"]["lease.renew_errors"] == 1
        assert queue.leases.read("cell").expires_at > before


class TestLinkClaims:
    """A lease and a done marker are hard links to the owner's token;
    its mtime plus its ttl is the expiry."""

    def test_a_claim_retried_after_a_transient_error_is_won(self, tmp_path, monkeypatch):
        """The first ``link`` lands and then reports EIO: the retry meets
        its own link, so the claim is won at once — not left behind as a
        foreign lease that strands the cell for a ttl."""
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=1))
        real_link = os.link
        flaked = []

        def link_then_eio(src, dst):
            real_link(src, dst)
            if not flaked:
                flaked.append(dst)
                raise OSError(errno.EIO, "reply lost after the link landed")

        monkeypatch.setattr(os, "link", link_then_eio)
        executed: list = []
        worker = make_worker(queue, served(executed), worker_id="flaky")
        worker.store._sleep = lambda _s: None
        claim = queue.leases.try_claim
        won: list = []
        monkeypatch.setattr(
            queue.leases, "try_claim",
            lambda *args, **kwargs: won.append(claim(*args, **kwargs)) or won[-1],
        )
        report = worker.run()
        assert flaked == [queue.leases._path(keys[0])]
        assert won == [True]
        assert executed == report.executed == keys
        assert worker.metrics.snapshot()["counters"]["store.retried.link"] == 1
        assert queue.leases.leases() == [] and queue.is_done(keys[0])

    def test_a_drain_creates_no_file_per_cell(self, tmp_path, monkeypatch, size_only_commits):
        """File creations while a worker drains 4 cells equal those while
        it drains 12; each lease and done marker is the worker's token."""
        real_open, real_mkstemp, real_mkdir = os.open, tempfile.mkstemp, os.mkdir
        created: list = []

        def counting_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(path)
            return real_open(path, flags, *args, **kwargs)

        def counting_mkstemp(*args, **kwargs):
            created.append("mkstemp")
            return real_mkstemp(*args, **kwargs)

        def counting_mkdir(path, *args, **kwargs):
            created.append(path)
            return real_mkdir(path, *args, **kwargs)

        def drain(n: int) -> tuple[int, list, list]:
            queue = WorkQueue(tmp_path / f"q{n}")
            keys = enqueue(queue, tiny_tasks(n_seeds=n))
            token = queue.root / "leases" / ".tokens" / "solo.json"
            held: list = []  # (lease, token) stats while each cell runs

            def execute(task, *args):
                held.append((
                    os.stat(queue.leases._path(task.key())),
                    os.stat(token) if token.exists() else None,
                ))
                return make_result(task.key())

            worker = make_worker(queue, execute, worker_id="solo")
            created.clear()
            with monkeypatch.context() as patch:
                patch.setattr(os, "open", counting_open)
                patch.setattr(tempfile, "mkstemp", counting_mkstemp)
                patch.setattr(os, "mkdir", counting_mkdir)
                report = worker.run()
            assert sorted(report.executed) == sorted(keys)
            markers = [os.stat(queue.done_dir / f"{key}.json") for key in keys]
            return len(created), held, markers

        (few, *_), (many, held, markers) = drain(4), drain(12)
        assert few == many
        token = held[0][1]
        assert token is not None
        assert all(os.path.samestat(lease, token) for lease, _ in held)
        assert all(os.path.samestat(marker, token) for marker in markers)

    def test_a_lease_whose_release_keeps_failing_is_re_taken(self, tmp_path):
        """Every lease unlink fails for good (EIO), so a failed cell's
        release leaves its lease behind. That orphan is the worker's own
        token, touched by each claim, so it never ages out while the
        worker lives: the worker re-takes it, the cell runs again and
        the grid drains."""
        import threading

        queue = WorkQueue(tmp_path / "q")
        keys = enqueue(queue, tiny_tasks(n_seeds=3))
        plan = FaultPlan(io_faults=[
            {"op": "unlink", "path": "leases/*", "errno": "EIO", "count": 0},
        ])
        attempts: list = []

        def fail_first_attempt(task, *args):
            attempts.append(task.key())
            if attempts.count(keys[0]) == 1 and task.key() == keys[0]:
                raise RuntimeError("the first attempt fails")
            return make_result(task.key())

        worker = make_worker(
            queue, fail_first_attempt, FaultyWorker, worker_id="orphan",
            poll_interval=0.01, plan=plan, spool_dir=tmp_path / "spool",
        )
        worker.store._sleep = lambda _s: None
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        thread.join(timeout=20.0)
        stuck = thread.is_alive()
        worker.max_cells = 0  # stops a stuck worker at its next pass
        assert not stuck, "the orphaned cell was never re-issued"
        assert worker.report.failed == [keys[0]]
        assert attempts.count(keys[0]) == 2
        assert sorted(worker.report.executed) == sorted(keys)
        assert queue.done_keys() == set(keys)

    def test_expiry_is_the_claimers_ttl_not_the_readers(self, tmp_path):
        LeaseBoard(tmp_path, ttl=0.05).try_claim("cell", "quick", now=1000.0)
        reader = LeaseBoard(tmp_path, ttl=30.0)
        lease = reader.read("cell")
        assert lease.owner == "quick"
        assert lease.expires_at == pytest.approx(1000.05)
        assert reader.reap("cell", now=1000.1)

    def test_a_lease_of_the_previous_version_expires_a_board_ttl_after_its_mtime(
        self, tmp_path
    ):
        board = LeaseBoard(tmp_path, ttl=30.0)
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({
            "key": "cell", "owner": "old", "claimed_at": 1.0,
            "expires_at": 31.0, "renewals": 2,
        }))
        os.utime(path, (1000.0, 1000.0))
        lease = board.read("cell")
        assert (lease.owner, lease.expires_at) == ("old", 1030.0)
        assert not board.reap("cell", now=1029.0)
        assert board.reap("cell", now=1030.0)

    def test_a_touch_in_the_reap_window_restores_the_lease(self, tmp_path, monkeypatch):
        """The tombstone is the lease's inode: a heartbeat that lands
        between the reaper's rename and its re-check is seen."""
        board = LeaseBoard(tmp_path, ttl=30.0)
        board.try_claim("cell", "slow", now=1000.0)
        rename = board.store.rename

        def rename_then_beat(src, dst):
            rename(src, dst)
            board.store.touch(board.tokens_dir / "slow.json", now=1100.0)

        monkeypatch.setattr(board.store, "rename", rename_then_beat)
        assert not board.reap("cell", now=1050.0)
        assert board.read("cell").expires_at == 1130.0
        assert board.renew("slow", ["cell"]) == set()  # still its own link
        assert list(board._tombstones.iterdir()) == []

    def test_a_token_backs_at_most_token_links(self, tmp_path, monkeypatch):
        """Past ``TOKEN_LINKS`` the owner starts its next token; one tick
        touches every token behind a held lease; a clean exit unlinks
        the token names and the done markers keep the inodes."""
        monkeypatch.setattr(lease_module, "TOKEN_LINKS", 2)
        queue = WorkQueue(tmp_path)
        board = queue.leases
        for key in ("a", "b", "c"):
            assert board.try_claim(key, "w", now=1000.0)
        queue.mark_done("a", "w")
        tokens = sorted(p.name for p in board.tokens_dir.iterdir())
        assert tokens == ["w.1.json", "w.json"]
        assert os.path.samefile(board._path("a"), board.tokens_dir / "w.json")
        assert os.path.samefile(board._path("c"), board.tokens_dir / "w.1.json")
        assert os.path.samefile(queue.done_dir / "a.json", board.tokens_dir / "w.1.json")
        assert board.renew("w", ["a", "b", "c"], now=2000.0) == set()
        assert {lease.expires_at for lease in board.leases()} == {2030.0}
        assert all(board.release(key, "w") for key in ("a", "b", "c"))
        board.retire("w")
        assert list(board.tokens_dir.iterdir()) == [] and board.leases() == []
        assert queue.is_done("a") and os.stat(queue.done_dir / "a.json").st_nlink == 1

    def test_a_duplicate_publish_keeps_the_first_marker(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.publish("w0", make_result("k1", "w0"))
        queue.publish("w1", make_result("k1", "w1"))
        tokens = queue.leases.tokens_dir
        assert os.path.samefile(queue.done_dir / "k1.json", tokens / "w0.json")
        assert not os.path.samefile(queue.done_dir / "k1.json", tokens / "w1.json")

    def test_racing_claimers_win_each_key_exactly_once(self, tmp_path):
        """Six owners, each on its own board, race for the same keys from
        threads (more than this box's cores) with a short switch
        interval: every key has one winner, and its lease is that
        winner's token."""
        import sys
        import threading

        keys = [f"k{i:03d}" for i in range(60)]
        boards = [LeaseBoard(tmp_path, ttl=30.0) for _ in range(6)]
        wins: dict[str, list[str]] = {key: [] for key in keys}
        start = threading.Barrier(len(boards))

        def claim_all(index: int) -> None:
            owner = f"o{index}"
            start.wait(timeout=10.0)
            for key in keys[index:] + keys[:index]:
                if boards[index].try_claim(key, owner):
                    wins[key].append(owner)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=claim_all, args=(i,)) for i in range(len(boards))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(owners) == 1 for owners in wins.values()), wins
        for key, (owner,) in wins.items():
            token = tmp_path / ".tokens" / f"{owner}.json"
            assert os.path.samefile(tmp_path / f"{key}.json", token)
            assert boards[0].read(key).owner == owner

    def test_a_reused_owner_id_never_renews_its_predecessors_leases(self, tmp_path):
        """A restarted ``--worker-id`` gets a token of its own, so the
        dead incarnation's leases still age out."""
        LeaseBoard(tmp_path, ttl=30.0).try_claim("dead", "same", now=1000.0)
        board = LeaseBoard(tmp_path, ttl=30.0)
        board.try_claim("live", "same", now=1000.0)
        board.renew("same", ["live"], now=2000.0)
        assert board.read("dead").expires_at == 1030.0
        assert board.read("live").expires_at == 2030.0
        assert board.release("live", "same") and not board.release("dead", "same")


def served(executed: list | None = None):
    """An ``execute`` override serving canned results (no simulation)."""

    def execute(task, *args):
        if executed is not None:
            executed.append(task.key())
        return make_result(task.key())

    return execute


def count_store_ops(worker: QueueWorker) -> list[str]:
    """Every store operation ``worker`` performs from now on, as
    ``"<op> <directory>"`` (every one runs through ``Store._run``)."""
    ops: list[str] = []
    run = worker.store._run

    def counting(op, path, fn):
        ops.append(f"{op} {os.path.basename(os.path.dirname(path))}")
        return run(op, path, fn)

    worker.store._run = counting
    return ops


def commit_sizes(worker: QueueWorker) -> dict:
    return worker.metrics.snapshot()["histograms"]["queue.commit_cells"]


@pytest.fixture
def size_only_commits(monkeypatch):
    """Batches close on size alone and nothing republishes on a timer,
    so a loaded CI box cannot change the counts asserted below."""
    import repro.dist.worker as worker_module

    monkeypatch.setattr(worker_module, "COMMIT_AGE_S", 60.0)
    monkeypatch.setattr(worker_module, "METRICS_PUBLISH_INTERVAL_S", 60.0)


class TestOnePassDrain:
    def test_a_big_drain_lists_the_frontier_a_handful_of_times(
        self, tmp_path, monkeypatch, size_only_commits
    ):
        """One listing per pass, not per cell: 400 cells cost at most 3
        ``frontier()`` calls and 6 store operations apiece."""
        queue = WorkQueue(tmp_path)
        tasks = grid_tasks(["heuristic"], ["S1"], tiny_config(), n_seeds=400)
        keys = enqueue(queue, tasks)
        listings = []
        frontier = queue.frontier
        monkeypatch.setattr(
            queue, "frontier", lambda: listings.append(1) or frontier()
        )
        worker = make_worker(queue, served(), worker_id="solo")
        ops = count_store_ops(worker)
        report = worker.run()
        assert sorted(report.executed) == sorted(keys)
        assert len(listings) <= 3
        assert len(ops) <= 6 * len(keys)
        sizes = commit_sizes(worker)
        assert sizes["total"] == len(keys) and sizes["max"] == 8
        assert ops.count("append results") == sizes["count"] == len(keys) // 8

    def test_workers_start_their_walk_at_different_keys(self, tmp_path):
        queue = WorkQueue(tmp_path)
        enqueue(queue, grid_tasks(
            ["heuristic"], ["S1"], tiny_config(), n_seeds=32
        ))
        first = set()
        for worker_id in ("w0", "w1", "w2", "w3"):
            executed: list = []
            make_worker(
                queue, served(executed), worker_id=worker_id, max_cells=1,
            ).run()
            first.update(executed)
        # Four ids, 32 → 29 claimable keys: the offsets cannot all
        # coincide, and a taken key is never run twice.
        assert len(first) == 4
        assert queue.status().done == 4

    def test_claim_comes_first_and_the_lease_is_read_only_on_refusal(
        self, tmp_path
    ):
        queue = WorkQueue(tmp_path, lease_ttl=30.0)
        keys = enqueue(queue, tiny_tasks())
        queue.leases.try_claim(keys[0], "other")
        worker = make_worker(queue, served(), worker_id="me")
        ops = count_store_ops(worker)
        assert worker._scan_once() is True
        # keys[0]: touch + refused link + a stat for a lease of its own,
        # then one read (content + stat); keys[1]: touch + link only.
        assert ops.count("touch .tokens") == ops.count("link leases") == 2
        assert ops.count("read leases") == 1
        assert ops.count("stat leases") == 2 + 1  # + the release's inode check


def walk_ring(queue: WorkQueue, worker_id: str) -> list[str]:
    """The claimable keys in the order ``worker_id`` walks them forward:
    from its crc32 offset, wrapping."""
    import zlib

    keys = queue.frontier().claimable
    offset = zlib.crc32(worker_id.encode()) % len(keys)
    return keys[offset:] + keys[:offset]


class TestWalkMeetsPeersOnce:
    """Forward from the offset until a peer's lease refuses a claim,
    then backward from just before it until one refuses again."""

    def _queue(self, tmp_path, n_seeds):
        queue = WorkQueue(tmp_path, lease_ttl=30.0)
        enqueue(queue, tiny_tasks(n_seeds))
        return queue

    def test_a_pass_turns_at_one_peer_and_stops_at_the_next(self, tmp_path):
        queue = self._queue(tmp_path, 10)
        ring = walk_ring(queue, "me")
        for key in (ring[3], ring[7]):
            assert queue.leases.try_claim(key, "peer")
        executed: list = []
        worker = make_worker(queue, served(executed), worker_id="me")
        assert worker._scan_once() is True
        assert executed == [ring[0], ring[1], ring[2], ring[9], ring[8]]
        assert worker._stalled
        # The next pass starts from a fresh snapshot, reads each lease
        # before claiming (the peer's two refuse no claim) and takes the
        # rest.
        executed.clear()
        assert worker._scan_once() is True
        assert sorted(executed) == sorted(ring[4:7])
        assert worker._stalled  # it met the peer's two again
        counters = worker.metrics.snapshot()["counters"]
        assert counters["lease.claims"] == 8
        assert counters["lease.conflicts"] == 2

    def test_a_pass_that_ran_nothing_walks_past_both_peers(
        self, tmp_path, monkeypatch
    ):
        """Refused both ways before running a cell, the pass walks on,
        so a free cell beyond the peers' is not left behind; it looks at
        the leases there before claiming, so a third peer costs a read."""
        queue = self._queue(tmp_path, 6)
        ring = walk_ring(queue, "me")
        stale = queue.frontier()
        monkeypatch.setattr(queue, "frontier", lambda: stale)
        for key in (ring[0], ring[5], ring[4]):
            assert queue.leases.try_claim(key, "peer")
        for key in (ring[1], ring[3]):  # finished since the snapshot
            queue.publish("peer", make_result(key, "peer"))
        executed: list = []
        worker = make_worker(queue, served(executed), worker_id="me")
        ops = count_store_ops(worker)
        assert worker._scan_once() is True
        assert executed == [ring[2]]
        assert not worker._stalled
        assert worker.metrics.snapshot()["counters"]["lease.conflicts"] == 2
        # ring[0] and ring[5] refused a claim; ring[4] and ring[2] were
        # looked at first, and only ring[2] claimed.
        assert ops.count("link leases") == 3
        assert ops.count("read leases") == 2 + 2


class TestGroupCommit:
    def test_max_cells_executes_exactly_n_and_publishes_them(self, tmp_path):
        queue = WorkQueue(tmp_path)
        enqueue(queue, grid_tasks(
            ["heuristic"], ["S1"], tiny_config(), n_seeds=6
        ))
        executed: list = []
        worker = make_worker(
            queue, served(executed), worker_id="three", max_cells=3
        )
        report = worker.run()
        assert report.exit_reason == "max_cells"
        assert len(executed) == 3 and sorted(report.executed) == sorted(executed)
        assert set(queue.merged_results()) == queue.done_keys() == set(executed)
        assert queue.leases.leases() == []
        assert commit_sizes(worker)["total"] == 3

    @pytest.mark.parametrize("wait, reason", [
        (False, "drained"), (True, "run_complete"),
    ])
    def test_a_short_batch_is_published_before_the_exit(
        self, tmp_path, wait, reason, size_only_commits
    ):
        from dataclasses import replace

        queue = WorkQueue(tmp_path)
        tasks = grid_tasks(["heuristic"], ["S1"], tiny_config(), n_seeds=5)
        manifest = ensure_enqueued(queue, tasks)
        queue.write_manifest(replace(manifest, state="complete"))
        worker = make_worker(
            queue, served(), worker_id="short", poll_interval=0.01,
            wait_for_work=wait,
        )
        report = worker.run()
        assert report.exit_reason == reason
        assert len(queue.merged_results()) == queue.status().done == 5
        sizes = commit_sizes(worker)
        assert (sizes["count"], sizes["total"]) == (1, 5)  # one fsync

    def test_store_outage_mid_pass_commits_what_was_finished(self, tmp_path):
        """The fourth claim hits a dead store: the three results already
        pending are published on the way out, not lost with the pass."""
        queue = WorkQueue(tmp_path / "q")
        enqueue(queue, grid_tasks(
            ["heuristic"], ["S1"], tiny_config(), n_seeds=6
        ))
        plan = FaultPlan(io_faults=[
            {"op": "link", "path": "leases/*", "errno": "ENOSPC",
             "nth": 4, "count": 0},
        ])
        executed: list = []
        worker = make_worker(
            queue, served(executed), FaultyWorker, worker_id="cutoff",
            poll_interval=0.01, plan=plan, spool_dir=tmp_path / "spool",
        )
        with pytest.raises(RuntimeError, match="stayed unavailable"):
            worker.run()
        assert len(executed) == 3
        assert set(queue.merged_results()) == queue.done_keys() == set(executed)
        assert queue.leases.leases() == []

    def test_a_slow_cell_publishes_alone(self, tmp_path, monkeypatch):
        """A cell older than COMMIT_AGE_S at its finish is not held back
        for batch-mates — exactly the pre-batching behaviour."""
        import repro.dist.worker as worker_module

        monkeypatch.setattr(worker_module, "COMMIT_AGE_S", 0.0)
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, tiny_tasks(n_seeds=3))
        worker = make_worker(queue, served(), worker_id="slow")
        worker.run()
        sizes = commit_sizes(worker)
        assert (sizes["count"], sizes["max"]) == (len(keys), 1)

    def test_a_cell_with_a_strike_on_record_commits_alone(self, tmp_path):
        queue = WorkQueue(tmp_path)
        keys = enqueue(queue, grid_tasks(
            ["heuristic"], ["S1"], tiny_config(), n_seeds=6
        ))
        queue.record_failure(keys[3], "dead", "crashed holding the lease")
        held_at_execute = {}

        def execute(task, *args):
            held_at_execute[task.key()] = len(queue.leases.leases())
            return make_result(task.key())

        worker = make_worker(queue, execute, worker_id="careful")
        worker.run()
        # Nothing else was leased while the struck cell ran, and it did
        # not wait for anyone afterwards.
        assert held_at_execute[keys[3]] == 1
        sizes = commit_sizes(worker)
        assert sizes["total"] == 6 and sizes["count"] >= 2 and sizes["min"] == 1
        assert queue.status().done == 6

    def test_torn_write_inside_a_batch_keeps_the_whole_lines(self, tmp_path):
        """The writer dies (here: the volume fills) half-way through a
        3-line append. The lines that landed whole merge, the fragment
        is a torn tail — skipped, never quarantined — and every cell is
        still owed, so a rescuer finishes the grid."""
        queue = WorkQueue(tmp_path / "q")
        keys = enqueue(queue, tiny_tasks(n_seeds=3))
        plan = FaultPlan(io_faults=[
            {"op": "append", "path": "results/*", "errno": "ENOSPC",
             "torn": True, "nth": 1, "count": 1},
            {"op": "append", "path": "results/*", "errno": "ENOSPC",
             "nth": 2, "count": 0},
        ])
        doomed = make_worker(
            queue, served(), FaultyWorker, worker_id="doomed",
            poll_interval=0.01, plan=plan, spool_dir=tmp_path / "spool",
        )
        with pytest.raises(RuntimeError, match="spooled"):
            doomed.run()
        shard = queue.shard_path("doomed").read_text()
        assert not shard.endswith("\n")  # the append really was cut short
        whole = queue.merged_results()
        assert 1 <= len(whole) < len(keys)
        assert queue.quarantine_count() == 0
        assert queue.frontier().claimable == sorted(keys)  # all re-issue
        make_worker(queue, served(), worker_id="rescuer").run()
        assert set(queue.merged_results()) == set(keys)
        assert queue.quarantine_count() == 0
        assert queue.status().pending == 0


class TestOneHeartbeatPerWorker:
    def test_refusal_on_one_of_three_held_leases_marks_only_that_cell(
        self, tmp_path, size_only_commits
    ):
        import time

        queue = WorkQueue(tmp_path, lease_ttl=0.4)  # renewals every 0.1 s
        keys = enqueue(queue, tiny_tasks(n_seeds=3))
        order: list = []

        def execute(task, *args):
            order.append(task.key())
            if len(order) == 3:
                # Two results pending, this cell running: all three
                # leases are ours. The first is reaped and re-claimed.
                assert len(queue.leases.owner_leases("beating")) == 3
                queue.leases.force_release(order[0])
                queue.leases.try_claim(order[0], "thief")
                time.sleep(0.35)
            return make_result(task.key())

        worker = make_worker(queue, execute, worker_id="beating")
        report = worker.run()
        assert sorted(report.executed) == sorted(keys)
        assert report.straggled == [order[0]]
        counters = worker.metrics.snapshot()["counters"]
        assert counters["queue.straggles"] == 1
        assert counters["lease.renew_refused"] >= 1
        assert counters["lease.renews"] >= 2  # the other two kept beating
        # The thief's lease was never touched by the straggler's release.
        assert queue.leases.read(order[0]).owner == "thief"

    def test_registration_is_throttled_like_the_metrics_snapshot(
        self, tmp_path, size_only_commits
    ):
        queue = WorkQueue(tmp_path)
        enqueue(queue, grid_tasks(
            ["heuristic"], ["S1"], tiny_config(), n_seeds=40
        ))
        worker = make_worker(queue, served(), worker_id="quiet")
        ops = count_store_ops(worker)
        worker.run()
        # start + exit (the drain never reaches the interval), each one
        # registration and one snapshot — not one per cell.
        assert ops.count("link done") == 40
        assert ops.count("write workers") == ops.count("write metrics") == 2
        (registration,) = queue.workers()
        assert registration["exited"] is True
        assert registration["cells_done"] == 40
