"""Unit tests for checkpoint journal durability and torn-tail handling."""

from __future__ import annotations

import json

from repro.exp.records import TaskResult
from repro.exp.runner import ExperimentRunner
from repro.sim.metrics import MetricReport
from repro.utils.durable import unseal_line


def make_result(key: str) -> TaskResult:
    return TaskResult(
        key=key,
        method="heuristic",
        seed=7,
        workloads=("S1",),
        metrics={"S1": MetricReport(
            utilization={"node": 0.8, "burst_buffer": 0.3},
            avg_wait=12.5, avg_slowdown=1.5, max_wait=99.0,
            p95_slowdown=2.25, makespan=1000.0, n_jobs=20,
        )},
        wall_time=0.1,
    )


class TestTornFragmentRecovery:
    def _journal(self, tmp_path, keys, tail=""):
        path = tmp_path / "ckpt.jsonl"
        lines = [
            json.dumps(make_result(key).to_json_dict(), sort_keys=True)
            for key in keys
        ]
        path.write_text("".join(line + "\n" for line in lines) + tail)
        return path, lines

    def test_torn_final_line_is_dropped(self, tmp_path):
        path, _ = self._journal(tmp_path, ["a", "b"], tail='{"key": "c", "met')
        runner = ExperimentRunner(checkpoint_path=path)
        done = runner._load_checkpoint()
        assert set(done) == {"a", "b"}
        assert all(r.source == "checkpoint" for r in done.values())

    def test_clean_journal_is_not_rewritten(self, tmp_path):
        path, _ = self._journal(tmp_path, ["a", "b"])
        before = path.stat().st_mtime_ns
        done = ExperimentRunner(checkpoint_path=path)._load_checkpoint()
        assert set(done) == {"a", "b"}
        assert path.stat().st_mtime_ns == before

    def test_interior_torn_line_is_also_dropped(self, tmp_path):
        """Corruption anywhere — not just the tail — is skipped, and
        the journal itself is left alone (appends start on a fresh line
        regardless; see tests/unit/test_durable.py)."""
        path, lines = self._journal(tmp_path, ["a"])
        good = json.dumps(make_result("b").to_json_dict(), sort_keys=True)
        text = lines[0] + "\n" + '{"key": "x", "bro\n' + good + "\n"
        path.write_text(text)
        done = ExperimentRunner(checkpoint_path=path)._load_checkpoint()
        assert set(done) == {"a", "b"}
        assert path.read_text() == text

    def test_append_after_torn_tail_keeps_old_and_new_records(self, tmp_path):
        """An interrupted run's fragment never swallows the resumed
        run's first record: the append lands on its own line."""
        path, _ = self._journal(tmp_path, ["a", "b"], tail='{"key": "c", "met')
        runner = ExperimentRunner(checkpoint_path=path)
        runner._append_checkpoint(make_result("c"))
        assert set(runner._load_checkpoint()) == {"a", "b", "c"}


class TestAppendDurability:
    def test_append_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "ckpt.jsonl"
        runner = ExperimentRunner(checkpoint_path=path)
        runner._append_checkpoint(make_result("a"))
        runner._append_checkpoint(make_result("b"))
        done = runner._load_checkpoint()
        assert set(done) == {"a", "b"}
        # Two fully-terminated, CRC-sealed JSON lines on disk.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            body, verdict = unseal_line(line)
            assert verdict is True
            assert json.loads(body)["key"] in {"a", "b"}

    def test_append_fsyncs_the_fd(self, tmp_path, monkeypatch):
        import os as os_mod

        import repro.exp.runner as runner_mod

        synced = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(
            runner_mod.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = tmp_path / "ckpt.jsonl"
        runner = ExperimentRunner(checkpoint_path=path)
        runner._append_checkpoint(make_result("a"))
        # First create fsyncs the file *and* its directory…
        assert len(synced) == 2
        runner._append_checkpoint(make_result("b"))
        # …later appends only the file.
        assert len(synced) == 3


class TestJournalInteriorCorruptionQuarantine:
    """Interior corruption in queue journal shards is *quarantined*.

    The runner's checkpoint journal above may silently skip torn
    lines — it is single-writer, and a torn line there can only be its
    own crash. The distributed journal shards cannot: an interior bad
    line means the storage layer mangled a record that was once whole,
    so the merge moves it to ``quarantine/`` with provenance instead of
    absorbing it, and the surviving records still merge first-wins.
    """

    def _shard_queue(self, tmp_path, keys, worker="w0"):
        from repro.dist.queue import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        for key in keys:
            result = make_result(key)
            result.worker_id = worker
            queue.publish(worker, result)
        return queue

    def test_bad_interior_line_lands_in_quarantine_with_provenance(
        self, tmp_path
    ):
        queue = self._shard_queue(tmp_path, ["a", "b", "c"])
        shard = queue.shard_path("w0")
        lines = shard.read_text().splitlines()
        lines[1] = lines[1][:40] + "##corrupted##" + lines[1][40:]
        shard.write_text("\n".join(lines) + "\n")

        merged = queue.merged_results()
        assert set(merged) == {"a", "c"}  # survivors still merge
        (record,) = queue.quarantined()
        assert record["origin"] == shard.name
        assert record["line_no"] == 2
        assert "checksum" in record["reason"]
        assert "##corrupted##" in record["raw"]
        assert record["detected_by"] and record["detected_at"] > 0

    def test_first_wins_merge_survives_corruption_in_one_shard(self, tmp_path):
        """A duplicate publish in a later shard backfills the
        quarantined copy, so the grid still completes losslessly."""
        queue = self._shard_queue(tmp_path, ["a", "b"], worker="w0")
        from repro.dist.queue import WorkQueue  # noqa: F401  (same queue)

        duplicate = make_result("b")
        duplicate.worker_id = "w1"
        queue.publish("w1", duplicate)  # straggler duplicate
        shard0 = queue.shard_path("w0")
        lines = shard0.read_text().splitlines()
        lines[1] = lines[1].replace('"key"', '"kex"')
        shard0.write_text("\n".join(lines) + "\n")

        merged = queue.merged_results()
        assert set(merged) == {"a", "b"}
        assert merged["b"].worker_id == "w1"  # the intact copy won
        assert queue.quarantine_count() == 1

    def test_clean_shards_quarantine_nothing(self, tmp_path):
        queue = self._shard_queue(tmp_path, ["a", "b"])
        assert set(queue.merged_results()) == {"a", "b"}
        assert queue.quarantine_count() == 0
        assert queue.status().quarantined == 0
