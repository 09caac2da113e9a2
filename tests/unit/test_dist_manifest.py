"""Unit tests for the run manifest + atomic batch enqueue
(repro.dist.manifest and the WorkQueue batch/manifest surface)."""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.manifest import (
    COORDINATOR_KEY,
    ManifestCorrupt,
    RunManifest,
    batch_name,
    ensure_enqueued,
)
from repro.dist.queue import WorkQueue
from repro.exp.records import ExperimentTask
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig
from tests.unit.test_dist_doctor import dead_pid


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_tasks(n_seeds: int = 2, workload: str = "S1") -> list[ExperimentTask]:
    return grid_tasks(["heuristic"], [workload], tiny_config(), n_seeds=n_seeds)


def make_manifest(**overrides) -> RunManifest:
    base = dict(
        run_id="abc123", generation=1, keys=("k1", "k2"),
        context={"batch_episodes": 1}, state="sealed",
        batches=(batch_name(1),), created_at=10.0, updated_at=11.0,
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_rejects_bad_state_and_generation(self):
        with pytest.raises(ValueError, match="state"):
            make_manifest(state="draining")
        with pytest.raises(ValueError, match="generation"):
            make_manifest(generation=0)
        with pytest.raises(ValueError, match="generation"):
            make_manifest(generation=True)
        with pytest.raises(ValueError, match="run_id"):
            make_manifest(run_id="")

    def test_round_trip_is_lossless(self):
        manifest = make_manifest()
        again = RunManifest.from_json_dict(
            json.loads(json.dumps(manifest.to_json_dict(), sort_keys=True))
        )
        assert again == manifest

    @settings(max_examples=50, deadline=None)
    @given(
        run_id=st.text(
            alphabet="abcdef0123456789", min_size=1, max_size=16
        ),
        generation=st.integers(min_value=1, max_value=9999),
        keys=st.lists(
            st.text(alphabet="0123456789abcdef", min_size=1, max_size=24),
            max_size=8,
        ),
        state=st.sampled_from(("staged", "sealed", "complete")),
        n_batches=st.integers(min_value=0, max_value=4),
        created_at=st.floats(
            min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False
        ),
        context=st.dictionaries(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
            st.one_of(st.integers(), st.booleans(), st.text(max_size=8)),
            max_size=4,
        ),
    )
    def test_serialization_round_trip_property(
        self, run_id, generation, keys, state, n_batches, created_at, context
    ):
        """Hypothesis: to_json_dict → json → from_json_dict is identity
        over the whole constructible manifest space."""
        manifest = RunManifest(
            run_id=run_id,
            generation=generation,
            keys=tuple(keys),
            context=context,
            state=state,
            batches=tuple(batch_name(g + 1) for g in range(n_batches)),
            created_at=created_at,
            updated_at=created_at + 1.0,
        )
        wire = json.dumps(manifest.to_json_dict(), sort_keys=True)
        assert RunManifest.from_json_dict(json.loads(wire)) == manifest


class TestQueueManifestSurface:
    def test_missing_manifest_reads_none(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.read_manifest() is None

    def test_write_read_round_trip(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        manifest = make_manifest()
        queue.write_manifest(manifest)
        assert queue.read_manifest() == manifest

    def test_corrupt_manifest_raises_and_quarantines(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.write_manifest(make_manifest())
        raw = queue.manifest_path.read_text()
        queue.manifest_path.write_text(raw.replace('"sealed"', '"staged"'))
        with pytest.raises(ManifestCorrupt, match="checksum"):
            queue.read_manifest()
        queue.quarantine_manifest("checksum mismatch")
        assert not queue.manifest_path.exists()
        assert queue.quarantine_count() == 1
        # Unparseable JSON is corrupt too, not an empty manifest.
        queue.manifest_path.write_text("{not json")
        with pytest.raises(ManifestCorrupt, match="JSON"):
            queue.read_manifest()


class TestBatchEnqueue:
    def test_stage_then_promote_publishes_keys(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        name = batch_name(1)
        queue.stage_batch(tasks, name)
        # Staged ≠ published: nothing visible yet.
        assert queue.task_keys() == []
        assert queue.promote_staged((name,)) == [name]
        assert queue.task_keys() == sorted(t.key() for t in tasks)
        # Idempotent: a second promote is a silent no-op.
        assert queue.promote_staged((name,)) == []

    def test_corrupt_batch_line_is_quarantined_not_merged(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        queue.stage_batch(tasks, batch_name(1))
        queue.promote_staged((batch_name(1),))
        path = queue.tasks_dir / batch_name(1)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-1] + ("0" if lines[0][-1] != "0" else "1")
        path.write_text("\n".join(lines) + "\n")
        fresh = WorkQueue(tmp_path / "q", create=False)  # cold cache
        keys = fresh.task_keys()
        assert len(keys) == len(tasks) - 1
        assert fresh.quarantine_count() == 1
        record = fresh.quarantined()[0]
        assert record["origin"] == batch_name(1)
        assert "checksum" in record["reason"]

    def test_unknown_key_still_raises_file_not_found(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with pytest.raises(FileNotFoundError):
            queue.load_task("deadbeef")


class TestEnsureEnqueued:
    def test_fresh_enqueue_seals_generation_one(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        manifest = ensure_enqueued(queue, tasks, context={"x": 1})
        assert manifest.state == "sealed"
        assert manifest.generation == 1
        assert set(manifest.keys) == {t.key() for t in tasks}
        assert manifest.batches == (batch_name(1),)
        assert manifest.context == {"x": 1}
        assert queue.task_keys() == sorted(t.key() for t in tasks)
        # Re-running against the sealed state is a no-op.
        again = ensure_enqueued(queue, tasks)
        assert again == manifest

    def test_staged_crash_resumes_same_generation(self, tmp_path):
        """A crash between 'staged' and 'sealed' (nothing published)
        re-stages deterministically under the same generation."""
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        # Fabricate the exact disk state a coordinator killed right
        # after writing the staged manifest leaves behind.
        queue.write_manifest(
            RunManifest(
                run_id="r1", generation=1,
                keys=tuple(t.key() for t in tasks), context={},
                state="staged", batches=(batch_name(1),),
            )
        )
        assert queue.task_keys() == []  # nothing published yet
        resumed = ensure_enqueued(queue, tasks)
        assert resumed.state == "sealed"
        assert resumed.generation == 1
        assert resumed.run_id == "r1"  # identity survives the crash
        assert queue.task_keys() == sorted(t.key() for t in tasks)

    def test_sealed_crash_resumes_promotion(self, tmp_path):
        """A crash between seal and promote is healed by the idempotent
        promote on the next invocation."""
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        name = batch_name(1)
        queue.stage_batch(tasks, name)
        queue.write_manifest(
            RunManifest(
                run_id="r2", generation=1,
                keys=tuple(t.key() for t in tasks), context={},
                state="sealed", batches=(name,),
            )
        )
        assert queue.task_keys() == []  # crash left nothing promoted
        manifest = ensure_enqueued(queue, tasks)
        assert manifest.run_id == "r2"
        assert manifest.generation == 1
        assert queue.task_keys() == sorted(t.key() for t in tasks)

    def test_new_grid_opens_next_generation(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        first = tiny_tasks()
        second = tiny_tasks(workload="S4")
        ensure_enqueued(queue, first)
        manifest = ensure_enqueued(queue, first + second)
        assert manifest.generation == 2
        assert set(manifest.keys) == {t.key() for t in first + second}
        assert manifest.batches == (batch_name(1), batch_name(2))
        assert queue.task_keys() == sorted(
            t.key() for t in first + second
        )

    def test_corrupt_manifest_is_quarantined_and_rebuilt(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        ensure_enqueued(queue, tasks)
        queue.manifest_path.write_text("{garbage")
        manifest = ensure_enqueued(queue, tasks)
        assert manifest.state == "sealed"
        assert queue.quarantine_count() == 1
        assert set(manifest.keys) == {t.key() for t in tasks}


class TestStatusSurface:
    def test_status_reports_manifest_and_skips_reserved_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        tasks = tiny_tasks()
        ensure_enqueued(queue, tasks, context={})
        queue.leases.try_claim(COORDINATOR_KEY, "coord-host-1234")
        status = queue.status()
        # The leader lease is not a task claim...
        assert status.leased_live == 0 and status.unclaimed == len(tasks)
        # ...but it is reported as the coordinator.
        assert status.coordinator["owner"] == "coord-host-1234"
        assert status.coordinator["live"] is True
        assert status.enqueue == "sealed"
        assert status.manifest["generation"] == 1
        assert status.manifest["cells"] == len(tasks)
        doc = status.to_json_dict()
        assert doc["enqueue"] == "sealed"
        assert doc["spool_backlog"] == 0
        assert doc["manifest"]["state"] == "sealed"

    def test_status_calls_a_dead_local_leader_dead(self, tmp_path):
        """queue-status, doctor and takeover share one liveness rule: a
        same-host leader whose pid is gone is dead before its ttl ends."""
        queue = WorkQueue(tmp_path / "q")
        host = socket.gethostname().split(".")[0]
        queue.leases.try_claim(COORDINATOR_KEY, f"coord-{host}-{dead_pid()}")
        assert queue.status().coordinator["live"] is False

    def test_status_flags_corrupt_manifest(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.manifest_path.write_text("{nope")
        assert queue.status().enqueue == "corrupt"

    def test_spool_backlog_sums_worker_snapshots(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.write_worker_metrics("w0", {
            "counters": {"store.degraded_entries": 5,
                         "store.spool_flushed": 2},
        })
        queue.write_worker_metrics("w1", {
            "counters": {"store.degraded_entries": 1,
                         "store.spool_flushed": 1},
        })
        assert queue.status().spool_backlog == 3

