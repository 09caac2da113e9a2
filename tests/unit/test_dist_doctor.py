"""Unit tests for ``repro doctor`` (repro.dist.doctor): every anomaly
class seeded into a fabricated queue dir, dry-run vs --repair."""

from __future__ import annotations

import json
import socket
import subprocess
import time

import pytest

from repro.api.cli import main
from repro.dist.doctor import audit_queue
from repro.dist.manifest import (
    COORDINATOR_KEY,
    RunManifest,
    batch_name,
    ensure_enqueued,
)
from repro.dist.queue import WorkQueue
from repro.exp.records import ExperimentTask
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_tasks(n_seeds: int = 2) -> list[ExperimentTask]:
    return grid_tasks(["heuristic"], ["S1"], tiny_config(), n_seeds=n_seeds)


def dead_pid() -> int:
    """A pid that existed a moment ago and is now gone."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def checks(report) -> set[str]:
    return {f.check for f in report.findings}


def finding(report, check):
    matches = [f for f in report.findings if f.check == check]
    assert matches, f"no {check!r} finding in {checks(report)}"
    return matches[0]


def test_not_a_queue_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        audit_queue(tmp_path / "nothing-here")


def test_clean_queue_is_ok(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    ensure_enqueued(queue, tiny_tasks())
    report = audit_queue(tmp_path / "q")
    assert report.ok
    assert not any(
        f.severity in ("warn", "error") for f in report.findings
    )
    # Serializes and summarizes without blowing up.
    json.dumps(report.to_json_dict())
    assert "clean" in report.summary() or "OK" in report.summary()


def test_manifest_anomalies(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    tasks = tiny_tasks()
    ensure_enqueued(queue, tasks)
    queue.manifest_path.write_text("{corrupt")
    dry = audit_queue(tmp_path / "q")
    assert not dry.ok
    assert not finding(dry, "manifest-corrupt").repaired
    assert queue.manifest_path.exists()  # dry run touched nothing
    fixed = audit_queue(tmp_path / "q", repair=True)
    assert finding(fixed, "manifest-corrupt").repaired
    assert not queue.manifest_path.exists()
    assert queue.quarantine_count() == 1
    # Quarantine contents themselves are a report-only warning now.
    after = audit_queue(tmp_path / "q")
    assert "quarantine" in checks(after)
    assert "manifest-missing" in checks(after)


def test_staged_manifest_is_flagged_not_repaired(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    tasks = tiny_tasks()
    queue.write_manifest(
        RunManifest(
            run_id="r1", generation=1,
            keys=tuple(t.key() for t in tasks), context={},
            state="staged", batches=(batch_name(1),),
        )
    )
    report = audit_queue(tmp_path / "q", repair=True)
    flag = finding(report, "manifest-staged")
    assert flag.severity == "warn" and not flag.repair
    assert not report.ok  # needs a dispatch re-run, not a doctor


def test_unpromoted_batch_and_staging_orphan(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    tasks = tiny_tasks()
    # Sealed manifest whose batch never left staging/ ...
    queue.stage_batch(tasks, batch_name(1))
    queue.write_manifest(
        RunManifest(
            run_id="r1", generation=1,
            keys=tuple(t.key() for t in tasks), context={},
            state="sealed", batches=(batch_name(1),),
        )
    )
    # ... plus a staging file nothing references.
    (queue.staging_dir / "batch-g9999.jsonl").write_text("junk\n")
    dry = audit_queue(tmp_path / "q")
    assert {"batch-unpromoted", "staging-orphan"} <= checks(dry)
    assert not dry.ok
    fixed = audit_queue(tmp_path / "q", repair=True)
    assert finding(fixed, "batch-unpromoted").repaired
    assert finding(fixed, "staging-orphan").repaired
    assert queue.task_keys() == sorted(t.key() for t in tasks)
    assert not (queue.staging_dir / "batch-g9999.jsonl").exists()
    assert audit_queue(tmp_path / "q").ok


def test_dead_coordinator_lease(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    host = socket.gethostname().split(".")[0]
    owner = f"coord-{host}-{dead_pid()}"
    assert queue.leases.try_claim(COORDINATOR_KEY, owner)
    dry = audit_queue(tmp_path / "q")
    assert "coordinator-dead" in checks(dry)
    assert not dry.ok
    fixed = audit_queue(tmp_path / "q", repair=True)
    assert finding(fixed, "coordinator-dead").repaired
    assert queue.leases.read(COORDINATOR_KEY) is None
    assert audit_queue(tmp_path / "q").ok


def test_live_coordinator_is_informational(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    host = socket.gethostname().split(".")[0]
    import os

    assert queue.leases.try_claim(COORDINATOR_KEY, f"coord-{host}-{os.getpid()}")
    report = audit_queue(tmp_path / "q")
    assert finding(report, "coordinator-live").severity == "info"
    assert report.ok


def test_orphan_and_expired_task_leases(tmp_path):
    queue = WorkQueue(tmp_path / "q", lease_ttl=0.05)
    tasks = tiny_tasks()
    ensure_enqueued(queue, tasks)
    done_key, pending_key = tasks[0].key(), tasks[1].key()
    # Orphan: lease on a cell that is already done.
    assert queue.leases.try_claim(done_key, "w-dead")
    queue.mark_done(done_key, "w-dead")
    # Expired: lease on a pending cell whose owner went silent.
    assert queue.leases.try_claim(pending_key, "w-silent")
    time.sleep(0.1)
    dry = audit_queue(tmp_path / "q")
    assert {"lease-orphan", "lease-expired"} <= checks(dry)
    fixed = audit_queue(tmp_path / "q", repair=True)
    assert finding(fixed, "lease-orphan").repaired
    assert finding(fixed, "lease-expired").repaired
    assert queue.leases.read(done_key) is None
    assert queue.leases.read(pending_key) is None


def test_token_orphan_is_a_dead_owners_token_only(tmp_path):
    """A lease token whose owner holds no lease and is not running is an
    ``info`` finding that ``--repair`` unlinks, leaving the done markers
    linked to its inode; a live coordinator (it holds
    ``__coordinator__``) and a live idle worker (a fresh record) are
    never flagged."""
    import os

    queue = WorkQueue(tmp_path / "q", lease_ttl=0.05)
    tasks = tiny_tasks(n_seeds=5)
    ensure_enqueued(queue, tasks)
    host = socket.gethostname().split(".")[0]
    leader = WorkQueue(tmp_path / "q", lease_ttl=30.0).leases
    assert leader.try_claim(COORDINATOR_KEY, f"coord-{host}-{os.getpid()}")
    records = {
        "w-exited": {"exited": True},
        "w-stale": {"last_seen": time.time() - 3600},
        "w-killed": {"pid": dead_pid()},  # fresh record, pid gone
        "w-idle": {},
    }
    for task, (owner, record) in zip(tasks, records.items()):
        assert queue.leases.try_claim(task.key(), owner)
        queue.mark_done(task.key(), owner)
        assert queue.leases.release(task.key(), owner)
        queue.register_worker(owner, **record)
    # Dead, but still holding a lease: the lease findings own it first.
    assert queue.leases.try_claim(tasks[-1].key(), "w-holding")
    queue.register_worker("w-holding", exited=True)
    time.sleep(0.1)  # every token is past its ttl
    tokens = queue.leases.tokens_dir

    dry = audit_queue(tmp_path / "q", stale_worker_s=60.0)
    orphans = [f for f in dry.findings if f.check == "token-orphan"]
    assert sorted(f.path for f in orphans) == sorted(
        str(tokens / f"{owner}.json") for owner in ("w-exited", "w-stale", "w-killed")
    )
    assert {f.severity for f in orphans} == {"info"}
    assert not any(f.repaired for f in orphans)

    fixed = audit_queue(tmp_path / "q", repair=True, stale_worker_s=60.0)
    assert all(f.repaired for f in fixed.findings if f.check == "token-orphan")
    assert sorted(p.name for p in tokens.iterdir()) == sorted(
        [f"coord-{host}-{os.getpid()}.json", "w-idle.json"]
    )
    assert queue.done_keys() == {t.key() for t in tasks[:-1]}


def test_tombstones_and_tmp_debris_are_info(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    (queue.leases._tombstones / "k1.json").write_text("{}")
    (queue.root / ".shard.json.tmp").write_text("partial")
    dry = audit_queue(tmp_path / "q")
    assert {"reap-tombstone", "tmp-debris"} <= checks(dry)
    assert dry.ok  # info-only debris never fails the audit
    fixed = audit_queue(tmp_path / "q", repair=True)
    assert finding(fixed, "reap-tombstone").repaired
    assert finding(fixed, "tmp-debris").repaired
    assert not (queue.leases._tombstones / "k1.json").exists()
    assert not (queue.root / ".shard.json.tmp").exists()


def test_complete_but_pending_is_an_error(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    tasks = tiny_tasks()
    ensure_enqueued(queue, tasks)
    manifest = queue.read_manifest()
    from dataclasses import replace

    queue.write_manifest(replace(manifest, state="complete"))
    report = audit_queue(tmp_path / "q", repair=True)
    flag = finding(report, "complete-but-pending")
    assert flag.severity == "error" and not flag.repaired
    assert not report.ok


def test_spec_missing_and_poisoned_cells(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    tasks = tiny_tasks()
    ensure_enqueued(queue, tasks)
    poisoned_key = tasks[0].key()
    for attempt in range(3):
        queue.record_failure(poisoned_key, f"w{attempt}", "boom")
    assert queue.poisoned(poisoned_key)
    # A manifest key with neither a spec nor a done marker.
    manifest = queue.read_manifest()
    from dataclasses import replace

    queue.write_manifest(
        replace(manifest, keys=manifest.keys + ("feedfacecafe",))
    )
    report = audit_queue(tmp_path / "q")
    assert {"cell-poisoned", "spec-missing", "cells-pending"} <= checks(
        report
    )
    assert not report.ok


def test_stale_worker_registration(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    queue.register_worker("w-gone", last_seen=time.time() - 3600)
    queue.register_worker("w-live")
    dry = audit_queue(tmp_path / "q", stale_worker_s=60.0)
    stale = [f for f in dry.findings if f.check == "worker-stale"]
    assert len(stale) == 1 and "w-gone" in stale[0].detail
    fixed = audit_queue(tmp_path / "q", repair=True, stale_worker_s=60.0)
    assert finding(fixed, "worker-stale").repaired
    records = {w["worker_id"]: w for w in queue.workers()}
    assert records["w-gone"]["exited"] and records["w-gone"]["stale"]
    assert not records["w-live"].get("exited")
    # Exited workers are skipped on the next pass.
    assert "worker-stale" not in checks(
        audit_queue(tmp_path / "q", stale_worker_s=60.0)
    )


@pytest.mark.parametrize("stale_worker_s", [float("nan"), -1.0, float("inf")])
def test_stale_threshold_must_be_finite_and_non_negative(tmp_path, stale_worker_s):
    queue = WorkQueue(tmp_path / "q")
    queue.register_worker("w-live")
    before = (queue.workers_dir / "w-live.json").read_bytes()
    with pytest.raises(ValueError, match="stale_worker_s must be"):
        audit_queue(tmp_path / "q", repair=True, stale_worker_s=stale_worker_s)
    assert (queue.workers_dir / "w-live.json").read_bytes() == before


def test_spool_backlog_is_reported(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    queue.write_worker_metrics("w0", {
        "counters": {"store.degraded_entries": 4,
                     "store.spool_flushed": 1},
    })
    report = audit_queue(tmp_path / "q")
    flag = finding(report, "spool-backlog")
    assert "3 result(s)" in flag.detail and not flag.repair


class TestDoctorCLI:
    def test_exit_codes_and_repair(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "q")
        ensure_enqueued(queue, tiny_tasks())
        assert main(["doctor", str(tmp_path / "q")]) == 0
        orphan = queue.staging_dir / "batch-g9999.jsonl"
        queue.staging_dir.mkdir(exist_ok=True)
        orphan.write_text("junk\n")
        assert main(["doctor", str(tmp_path / "q")]) == 1
        out = capsys.readouterr().out
        assert "staging-orphan" in out and "dry run" in out
        assert main(["doctor", str(tmp_path / "q"), "--repair"]) == 0
        assert not orphan.exists()

    def test_repairing_corruption_still_flags_quarantine(self, tmp_path):
        """Quarantining a corrupt manifest repairs the corruption but
        leaves a report-only quarantine warning — a human must look
        before the audit goes green again."""
        queue = WorkQueue(tmp_path / "q")
        ensure_enqueued(queue, tiny_tasks())
        queue.manifest_path.write_text("{corrupt")
        assert main(["doctor", str(tmp_path / "q"), "--repair"]) == 1
        assert not queue.manifest_path.exists()
        assert queue.quarantine_count() == 1

    def test_json_output(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "q")
        ensure_enqueued(queue, tiny_tasks())
        assert main(["doctor", str(tmp_path / "q"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["repair"] is False
        assert isinstance(doc["findings"], list)

    def test_missing_queue_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "ghost")]) == 1
