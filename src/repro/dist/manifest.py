"""The sealed run manifest: what a queue run *is*, durably.

PR 9 made individual queue operations survive a flaky store; the run as
a whole was still defined only by the coordinator process's memory — a
coordinator death left no record of what had been enqueued, how far the
enqueue got, or under what execution context. The manifest closes that
gap: one CRC-sealed JSON document (``queue_dir/manifest.json``, written
through the :class:`~repro.dist.store.Store` seam) recording the grid
expansion (cell keys), the enqueue generation, the execution context
and the run state. Any re-invocation of ``repro run --queue`` reads it
and resumes from done-markers/journals to a bit-identical merge.

The manifest is also the **publication point of the atomic batch
enqueue**. Task specs are written as one batch file (sealed JSONL, one
line per cell — 10⁶ cells become one create instead of 10⁶) into
``staging/``, and only a *sealed* manifest promotes them into
``tasks/``. The resulting state machine::

    (no manifest)  — nothing promised; enqueue starts from scratch
    state=staged   — enqueue in flight; nothing published. A crash here
                     is detectable (the staged manifest + staging files)
                     and the whole generation is re-staged
                     deterministically on resume.
    state=sealed   — the generation is published: the key list is
                     authoritative. A crash between seal and promotion
                     is healed by re-running the (idempotent) promote.
    state=complete — every manifest key has a done marker; elastic
                     ``--wait`` workers use this to exit instead of
                     polling forever.

Re-dispatching a *different* grid into the same queue directory opens a
new generation: the new cells land in a fresh batch file and the key
list grows to the union, so one directory can absorb successive sweeps
without ever re-writing published specs.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from dataclasses import dataclass, replace

__all__ = [
    "RunManifest",
    "ManifestCorrupt",
    "ensure_enqueued",
    "batch_name",
    "MANIFEST_NAME",
    "MANIFEST_STATES",
    "COORDINATOR_KEY",
    "coordinator_owner",
    "leader_dead",
    "local_pid_gone",
]

#: the manifest document, directly under the queue root
MANIFEST_NAME = "manifest.json"

MANIFEST_STATES = ("staged", "sealed", "complete")

#: reserved lease key for the coordinator leader-lease — task keys are
#: config-hash hex digests, so the dunder name can never collide
COORDINATOR_KEY = "__coordinator__"


def _host() -> str:
    return socket.gethostname().split(".")[0]


def coordinator_owner() -> str:
    """Leader-lease owner id: host-qualified so a reader can tell a
    dead *local* coordinator from one on another host."""
    return f"coord-{_host()}-{os.getpid()}"


def leader_dead(lease, now: float | None = None) -> bool:
    """Whether the leader ``lease`` no longer stands for a running
    coordinator: it expired, or its owner is on *this* host and its pid
    is gone — the one liveness rule of ``queue-status``, ``doctor`` and
    takeover.

    Conservative past expiry: a foreign host, an unparseable owner id,
    or a pid alive or unprobeable all read as alive until the lease
    ttl runs out.
    """
    if lease.expired(now):
        return True
    prefix, _, body = lease.owner.partition("-")
    host, sep, pid_text = body.rpartition("-")
    return prefix == "coord" and bool(sep) and local_pid_gone(host, pid_text)


def local_pid_gone(host: str, pid) -> bool:
    """Whether ``pid`` names a process of *this* host that no longer
    runs; a foreign host, or a pid alive or unprobeable, reads False."""
    if str(host).split(".")[0] != _host():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, TypeError):
        return False  # alive (EPERM), unprobeable or not a pid
    return False


class ManifestCorrupt(ValueError):
    """The on-disk manifest exists but cannot be trusted (bad CRC,
    unparseable JSON, or a malformed document)."""


def batch_name(generation: int) -> str:
    """The batch spec file name of one enqueue generation."""
    return f"batch-g{generation:04d}.jsonl"


@dataclass(frozen=True)
class RunManifest:
    """One queue run, durably: grid expansion + enqueue state.

    Parameters
    ----------
    run_id:
        Stable identifier of the run (created once, preserved across
        generations and takeovers).
    generation:
        Enqueue generation, 1-based; grows when a later dispatch adds
        cells the manifest does not yet cover.
    keys:
        The full grid expansion — every cell key this run has promised,
        across all generations.
    context:
        Execution context snapshot (timeouts, telemetry dir, …)
        — the same document published to ``meta.json`` for workers.
    state:
        ``staged`` | ``sealed`` | ``complete`` (see module docstring).
    batches:
        Batch spec files backing the keys, in generation order. A name
        appears here once its generation reached the staging dir; only
        a *sealed* manifest makes it eligible for promotion.
    """

    run_id: str
    generation: int
    keys: tuple[str, ...]
    context: dict
    state: str
    batches: tuple[str, ...] = ()
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in MANIFEST_STATES:
            raise ValueError(
                f"manifest state must be one of {MANIFEST_STATES}, "
                f"got {self.state!r}"
            )
        if not isinstance(self.generation, int) or isinstance(
            self.generation, bool
        ) or self.generation < 1:
            raise ValueError(
                f"manifest generation must be a positive int, "
                f"got {self.generation!r}"
            )
        if not self.run_id or not isinstance(self.run_id, str):
            raise ValueError(f"manifest run_id must be a non-empty string, "
                             f"got {self.run_id!r}")
        object.__setattr__(self, "keys", tuple(str(k) for k in self.keys))
        object.__setattr__(
            self, "batches", tuple(str(b) for b in self.batches)
        )
        object.__setattr__(self, "context", dict(self.context))

    @property
    def complete(self) -> bool:
        return self.state == "complete"

    def to_json_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "generation": self.generation,
            "keys": list(self.keys),
            "context": dict(self.context),
            "state": self.state,
            "batches": list(self.batches),
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunManifest":
        return cls(
            run_id=data["run_id"],
            generation=int(data["generation"]),
            keys=tuple(data["keys"]),
            context=dict(data.get("context", {})),
            state=data["state"],
            batches=tuple(data.get("batches", ())),
            created_at=float(data.get("created_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
        )


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def ensure_enqueued(queue, tasks, *, keys=None, context=None):
    """Drive the queue to a sealed manifest covering ``tasks``; resume
    any interrupted enqueue found on disk.

    Idempotent and crash-resumable at every step: a missing manifest
    starts generation 1; a *staged* manifest (enqueue died in flight —
    nothing was published, because publication is the seal) is re-staged
    deterministically under the same generation; a *sealed*/*complete*
    manifest first finishes any interrupted batch promotion, then opens
    a new generation only for cells it does not already cover (or whose
    specs went missing). ``keys`` are the tasks' keys when the caller
    already hashed them.

    Returns the sealed (or still-complete) :class:`RunManifest`.
    """
    if keys is None:
        keys = [task.key() for task in tasks]
    by_key: dict = {}
    for key, task in zip(keys, tasks):
        by_key.setdefault(key, task)

    try:
        manifest = queue.read_manifest()
    except ManifestCorrupt as exc:
        # A manifest that cannot be trusted is quarantined (with
        # provenance) and rebuilt — the grid expansion is deterministic,
        # so nothing about the *run* is lost, only the record of it.
        queue.quarantine_manifest(str(exc))
        manifest = None

    if manifest is not None and manifest.state in ("sealed", "complete"):
        # The published key list is authoritative. Finish any
        # interrupted promotion first, then cover what's missing.
        queue.promote_staged(manifest.batches)
        present = set(queue.task_keys())
        promised = set(manifest.keys)
        new_keys = [
            key for key in by_key
            if key not in promised or key not in present
        ]
        if not new_keys:
            return manifest
        generation = manifest.generation + 1
        run_id = manifest.run_id
        created_at = manifest.created_at
        all_keys = tuple(dict.fromkeys((*manifest.keys, *by_key)))
        batches = manifest.batches
    else:
        # No manifest, or a staged one: pre-seal state was never
        # published, so the whole generation is (re)staged from this
        # invocation's deterministic grid expansion.
        generation = manifest.generation if manifest is not None else 1
        run_id = manifest.run_id if manifest is not None else new_run_id()
        created_at = (
            manifest.created_at if manifest is not None else time.time()
        )
        present = set(queue.task_keys())
        all_keys = tuple(by_key)
        batches = ()
        new_keys = [key for key in by_key if key not in present]

    name = batch_name(generation)
    if new_keys:
        batches = tuple(dict.fromkeys((*batches, name)))
    manifest = RunManifest(
        run_id=run_id,
        generation=generation,
        keys=all_keys,
        context=dict(context or {}),
        state="staged",
        batches=batches,
        created_at=created_at,
        updated_at=time.time(),
    )
    queue.write_manifest(manifest)
    if new_keys:
        queue.stage_batch([by_key[key] for key in new_keys], name, new_keys)
    manifest = replace(manifest, state="sealed", updated_at=time.time())
    queue.write_manifest(manifest)
    queue.promote_staged(manifest.batches)
    return manifest
