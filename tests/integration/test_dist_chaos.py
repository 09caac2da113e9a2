"""The chaos soak: a seeded storm of storage faults + real SIGKILLs.

PR 7's fault harness pinned the *process-level* protocol (crashes,
heartbeat loss) to zero metric drift; this soak extends the contract to
the *storage* layer. A reproducible storm — scripted ``EIO``/``ESTALE``
retry flakes, torn journal appends, an ``ENOSPC`` brown-out, plus a
worker SIGKILLed mid-grid — must end with:

* every cell published (``pending == 0``), metrics **bit-identical** to
  a serial run (exact ``==`` on floats);
* every injected corruption **accounted for** in ``quarantine/`` with
  provenance — never silently dropped by the merge;
* a clean (fault-free) run quarantining exactly nothing.

The storm is generated from a fixed seed so the failure schedule is
randomized in shape but identical on every run.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import socket

import pytest

from repro.dist import (
    COORDINATOR_KEY,
    FaultInjector,
    FaultPlan,
    QueueWorker,
    WorkQueue,
    audit_queue,
    dispatch_tasks,
    ensure_enqueued,
)
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig

METHODS = ["heuristic", "scalar_rl"]
STORM_SEED = 0xC0FFEE


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


def storm_plan(rng: random.Random, *, torn_appends: int = 1) -> FaultPlan:
    """A reproducible storm of transient storage faults.

    Shapes vary with the seed (which op, which nth, which errno) but a
    given seed always yields the same plan — re-running the soak replays
    the identical failure schedule. Every entry is *recoverable*: the
    transient errnos retry through, and each torn append strands exactly
    one checksummable fragment for the quarantine ledger.
    """
    entries = []
    for _ in range(torn_appends):
        entries.append({
            "op": "append", "path": "results/*",
            "errno": rng.choice(["EIO", "ESTALE"]),
            "nth": 1, "count": 1, "torn": True,
        })
    for _ in range(rng.randint(2, 4)):
        entries.append({
            "op": rng.choice(["read", "write", "stat"]),
            "errno": rng.choice(["EIO", "ESTALE", "EAGAIN"]),
            "nth": rng.randint(1, 6),
            "count": rng.randint(1, 2),
        })
    return FaultPlan(io_faults=entries)


class TestChaosSoak:
    def test_storm_with_sigkill_is_bit_identical_and_accounted(
        self, grid_config, serial_exact, tmp_path
    ):
        """The headline soak: IO-fault storm on one worker, a real
        SIGKILL on the other, and the grid still converges exactly."""
        rng = random.Random(STORM_SEED)
        tasks = _tasks(grid_config)
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.5,
            worker_faults=[
                # Worker 0: publishes one cell, then SIGKILLs itself
                # right before its second publish (lease left behind,
                # executed work lost, cell re-issues elsewhere).
                FaultPlan(kill_before_publish=2),
                # Worker 1: rides out the storage storm — torn first
                # append plus seeded transient flakes, all recoverable.
                storm_plan(rng),
            ],
        )
        # Eventual completion, bit-identical to the serial run.
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        queue = WorkQueue(tmp_path / "q", create=False)
        status = queue.status()
        assert status.pending == 0
        # Accounting: the torn append stranded a fragment; the merge
        # quarantined it (with provenance) instead of dropping it.
        records = queue.quarantined()
        assert len(records) >= 1
        assert all(
            record["origin"].startswith("journal-")
            and record["line_no"] >= 1
            and record["detected_by"]
            for record in records
        )
        assert status.quarantined == len(records)

    def test_storm_is_reproducible(self):
        """Same seed, same storm — the soak replays its exact schedule."""
        assert storm_plan(random.Random(STORM_SEED)) == storm_plan(
            random.Random(STORM_SEED)
        )
        assert storm_plan(random.Random(STORM_SEED)) != storm_plan(
            random.Random(STORM_SEED + 1)
        )

    def test_enospc_brownout_spools_and_recovers_exactly(
        self, grid_config, serial_exact, tmp_path
    ):
        """A count-bounded ENOSPC outage: the worker degrades (spools
        locally, keeps going), the volume 'recovers', the spool flushes,
        and the merged grid is still bit-identical."""
        tasks = _tasks(grid_config)
        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        ensure_enqueued(queue, tasks)
        worker = QueueWorker(
            queue,
            worker_id="brownout",
            poll_interval=0.01,
            faults=FaultInjector(FaultPlan(io_faults=[
                {"op": "append", "path": "results/*", "errno": "ENOSPC",
                 "count": 2},
            ])),
            spool_dir=tmp_path / "spool",
        )
        worker.store._sleep = lambda _s: None  # instant backoff
        report = worker.run()
        assert report.spooled  # the outage really was hit
        merged = queue.merged_results()
        assert _exact(
            [merged[t.key()] for t in tasks]
        ) == serial_exact  # nothing lost, nothing drifted
        assert queue.status().pending == 0
        assert not (tmp_path / "spool" / "results.jsonl").exists()

    def test_clean_run_quarantines_nothing(
        self, grid_config, serial_exact, tmp_path
    ):
        """Zero false positives: a fault-free dispatch must not move a
        single record aside."""
        tasks = _tasks(grid_config)
        results = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        queue = WorkQueue(tmp_path / "q", create=False)
        assert queue.quarantine_count() == 0
        assert queue.status().pending == 0


def _dispatch_in_child(queue_dir, config, plan_json):
    """Fork target: run a coordinator scripted to SIGKILL itself."""
    tasks = grid_tasks(METHODS, ["S1"], config, n_seeds=2)
    dispatch_tasks(
        queue_dir,
        tasks,
        n_workers=2,
        lease_ttl=1.5,
        coordinator_faults=FaultPlan.from_json(plan_json),
    )


class TestCoordinatorCrash:
    """SIGKILL the *coordinator* anywhere in the run lifecycle, then
    re-invoke the dispatch on the same queue dir: the resumed run must
    merge bit-identically to an uninterrupted serial run, and the queue
    must audit clean afterwards."""

    @pytest.mark.parametrize(
        "point,nth",
        [
            ("staged", 1),    # mid-enqueue: manifest staged, nothing published
            ("sealed", 1),    # mid-enqueue: sealed but batch never promoted
            ("dispatch", 1),  # mid-dispatch: workers live, poll loop dies
            ("merge", 1),     # post-dispatch: all cells done, merge never ran
        ],
    )
    def test_kill_and_resume_is_bit_identical(
        self, grid_config, serial_exact, tmp_path, point, nth
    ):
        tasks = _tasks(grid_config)
        plan = FaultPlan(kill_coordinator_at=point, kill_coordinator_nth=nth)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_dispatch_in_child,
            args=(str(tmp_path / "q"), grid_config, plan.to_json()),
        )
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == -signal.SIGKILL  # the kill really landed
        queue = WorkQueue(tmp_path / "q", create=False)
        before = queue.read_manifest()
        assert before is not None  # every point is past the first write
        # Re-invoke on the same dir: the new coordinator detects the
        # dead leader (local-pid fast path), takes the run over, and
        # resumes from whatever the manifest pins.
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=1.5,
            coordinator_faults=FaultPlan(),
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        after = queue.read_manifest()
        assert after.run_id == before.run_id  # resumed, not restarted
        assert after.generation == before.generation
        assert after.complete
        status = queue.status()
        assert status.pending == 0
        assert status.quarantined == 0  # a clean kill corrupts nothing
        # The queue audits clean once repairable debris is swept.
        assert audit_queue(tmp_path / "q", repair=True).ok

    def test_attach_to_live_coordinator_returns_merge(
        self, grid_config, serial_exact, tmp_path
    ):
        """A second `repro run --queue` against a run whose leader lease
        is live (and local) must attach — poll, never dispatch — and
        hand back the leader's merge once the manifest completes."""
        tasks = _tasks(grid_config)
        first = dispatch_tasks(
            tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0
        )
        assert _exact([first[t.key()] for t in tasks]) == serial_exact
        queue = WorkQueue(tmp_path / "q", create=False, lease_ttl=10.0)
        # Impersonate a live local coordinator (our own pid is alive).
        host = socket.gethostname().split(".")[0]
        owner = f"coord-{host}-{os.getpid()}"
        assert queue.leases.try_claim(COORDINATOR_KEY, owner)
        results = dispatch_tasks(
            tmp_path / "q",
            tasks,
            n_workers=2,
            lease_ttl=10.0,
            coordinator_faults=FaultPlan(),
        )
        assert _exact([results[t.key()] for t in tasks]) == serial_exact
        # Attach mode never stole the leader lease.
        lease = queue.leases.read(COORDINATOR_KEY)
        assert lease is not None and lease.owner == owner
