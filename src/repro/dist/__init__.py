"""Distributed experiment dispatch over a shared-directory work queue.

The coordination layer that runs every multi-worker grid of the
experiment engine as an elastic multi-worker service: grid cells
become lease-able task records in a shared directory
(:class:`~repro.dist.queue.WorkQueue`), claimed via an atomic serverless
lease protocol (:class:`~repro.dist.lease.LeaseBoard`), executed by any
number of :class:`~repro.dist.worker.QueueWorker` loops that may join or
leave mid-grid, and published durably to per-worker journal shards that
merge losslessly. Crash recovery is re-issue after lease expiry;
correctness under re-issue is free because every cell is a deterministic
function of its config hash and ``SeedSequence`` seed — duplicates are
bit-identical.

Every filesystem byte of that protocol moves through one storage seam
(:class:`~repro.dist.store.Store`): errno-classified bounded retry with
per-worker seeded jitter, CRC32-checksummed journal lines and task
specs with quarantine-on-corruption, and
:class:`~repro.dist.store.StoreUnavailable` as the degraded-mode
escalation signal (workers spool finished results locally and flush
when the store recovers).

The *run* is crash-safe end to end: a CRC-sealed run manifest
(:class:`~repro.dist.manifest.RunManifest`) records the grid expansion
and publishes the atomic batch enqueue, a coordinator leader-lease lets
any re-invocation attach to a live run or take over a dead one
(resuming to bit-identical merged metrics), local worker processes are
started, watched and stopped by one launcher
(:class:`~repro.dist.supervise.WorkerSupervisor` — optionally
respawning crashed workers with backoff and a crash-loop circuit
breaker; ``repro work --supervise N``), and
:func:`~repro.dist.doctor.audit_queue` (``repro doctor``)
reports/repairs whatever an incident left behind.

Use it through ``ExperimentRunner(queue_dir=...)``,
a scenario's ``execution`` block, or the ``repro work`` /
``repro queue-status`` / ``repro doctor`` CLI subcommands.
"""

from repro.dist.coordinator import dispatch_tasks
from repro.dist.doctor import DoctorReport, Finding, audit_queue
from repro.dist.lease import Lease, LeaseBoard
from repro.dist.manifest import (
    COORDINATOR_KEY,
    ManifestCorrupt,
    RunManifest,
    ensure_enqueued,
)
from repro.dist.queue import QueueStatus, WorkQueue
from repro.dist.store import (
    RetryPolicy,
    Store,
    StoreUnavailable,
    classify_errno,
)
from repro.dist.supervise import SupervisorReport, WorkerSupervisor
from repro.dist.worker import (
    CellTimeout,
    QueueWorker,
    WorkerReport,
    new_worker_id,
)

__all__ = [
    "WorkQueue",
    "QueueStatus",
    "Lease",
    "LeaseBoard",
    "QueueWorker",
    "WorkerReport",
    "CellTimeout",
    "Store",
    "StoreUnavailable",
    "RetryPolicy",
    "classify_errno",
    "dispatch_tasks",
    "new_worker_id",
    "RunManifest",
    "ManifestCorrupt",
    "ensure_enqueued",
    "COORDINATOR_KEY",
    "WorkerSupervisor",
    "SupervisorReport",
    "audit_queue",
    "DoctorReport",
    "Finding",
]
