"""The shared-directory work queue: grid cells as lease-able task files.

Layout (everything under one ``queue_dir``, shareable over any common
filesystem)::

    queue_dir/
      meta.json                      # execution context (timeouts, …)
      manifest.json                  # CRC-sealed run manifest (repro.dist.manifest)
      staging/batch-g<n>.jsonl       # batch specs awaiting manifest seal
      tasks/batch-g<n>.jsonl         # published batch specs (one line per cell)
      leases/<key>.json              # lease protocol (repro.dist.lease)
      done/<key>.json                # completion marker: {worker, host, t}
      failed/<key>-<attempt>.json    # per-attempt execution failures
      results/journal-<worker>.jsonl # per-worker journal shards
      quarantine/<origin>-L<n>.json  # detected-corrupt records + provenance
      workers/<worker>.json          # worker registration + heartbeat
      metrics/<worker>.json          # per-worker metrics snapshots

Cells enter a queue one way: :func:`repro.dist.manifest.ensure_enqueued`
writes one sealed-JSONL spec file per generation atomically into
``staging/`` and the run manifest's seal publishes it, so a 10⁶-cell
grid is one create, and a half-written enqueue is *detectable and
resumable* instead of a silent race. The task key is the config hash,
so re-enqueueing the same deterministic
:func:`~repro.exp.runner.grid_tasks` expansion is a no-op. Completed
cells append to *per-worker* JSONL journal shards (appenders never
contend on one file) which are merged on read; duplicates from
straggler re-issues collapse by key and are bit-identical by
construction (per-cell ``SeedSequence`` seeding).

Storage robustness: every filesystem operation routes through the
:class:`~repro.dist.store.Store` seam (transient-errno retry with
seeded backoff), journal lines
and task specs are CRC32-checksummed, and **interior** corruption —
a bit-flipped line in the middle of a shard, as opposed to the torn
tail of a crashed writer — is detected on merge and moved aside into
``quarantine/`` with provenance instead of being silently dropped.
``repro queue-status`` surfaces the quarantine count; a clean run has
zero.
"""

from __future__ import annotations

import json
import os
import socket
import time
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.dist.lease import LeaseBoard
from repro.dist.manifest import MANIFEST_NAME, ManifestCorrupt, RunManifest
from repro.dist.store import Store
from repro.exp.records import ExperimentTask, TaskResult
from repro.obs.logbridge import get_logger, kv
from repro.utils.durable import (
    CORRUPT,
    OK,
    scan_sealed_jsonl,
    seal_json_payload,
    seal_line,
    verify_sealed_payload,
)

__all__ = ["WorkQueue", "QueueStatus", "Frontier"]

_log = get_logger("repro.dist.queue")

#: attempts after which a deterministically-failing cell stops being
#: re-issued (workers skip it; the coordinator raises with the errors)
MAX_ATTEMPTS = 3


class Frontier(NamedTuple):
    """One scan-start snapshot of the cells that are not done."""

    #: enqueued, no done marker, re-issue budget left — sorted, so
    #: every worker scans in the same stable order
    claimable: list[str]
    #: enqueued, no done marker, ``MAX_ATTEMPTS`` failures on record
    poisoned: list[str]


@dataclass
class QueueStatus:
    """One snapshot of a queue's progress (``repro queue-status``)."""

    total: int
    done: int
    leased_live: int
    leased_expired: int
    unclaimed: int
    failed_keys: dict[str, int] = field(default_factory=dict)
    workers: list[dict] = field(default_factory=list)
    #: aggregate throughput from the workers' metrics snapshots
    #: (None when no worker has published a snapshot yet)
    cells_per_sec: float | None = None
    eta_s: float | None = None
    #: detected-corrupt records moved aside on merge (clean run: 0)
    quarantined: int = 0
    #: run-manifest snapshot (run_id/state/generation/cells), or None
    #: for a queue that predates manifests / was never coordinator-run
    manifest: dict | None = None
    #: manifest state shorthand: none | staged | sealed | complete |
    #: corrupt — "staged" means a partial (unsealed) enqueue on disk
    enqueue: str = "none"
    #: results parked on worker-local disk awaiting store recovery,
    #: summed over the workers' metrics snapshots
    spool_backlog: int = 0
    #: the coordinator leader-lease, when one is held
    coordinator: dict | None = None

    @property
    def pending(self) -> int:
        return self.total - self.done

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "done": self.done,
            "pending": self.pending,
            "leased_live": self.leased_live,
            "leased_expired": self.leased_expired,
            "unclaimed": self.unclaimed,
            "failed": dict(self.failed_keys),
            "workers": list(self.workers),
            "cells_per_sec": self.cells_per_sec,
            "eta_s": self.eta_s,
            "quarantined": self.quarantined,
            "manifest": dict(self.manifest) if self.manifest else None,
            "enqueue": self.enqueue,
            "spool_backlog": self.spool_backlog,
            "coordinator": dict(self.coordinator) if self.coordinator else None,
        }

    def summary(self) -> str:
        lines = [
            f"cells: {self.done}/{self.total} done, "
            f"{self.leased_live} leased, {self.leased_expired} expired-lease, "
            f"{self.unclaimed} unclaimed"
        ]
        if self.cells_per_sec is not None:
            line = f"throughput: {self.cells_per_sec:.2f} cells/s"
            if self.eta_s is not None:
                from repro.obs.progress import format_duration

                line += f", eta {format_duration(self.eta_s)}"
            lines.append(line)
        if self.failed_keys:
            worst = max(self.failed_keys.values())
            lines.append(
                f"failed attempts on {len(self.failed_keys)} cell(s) "
                f"(worst {worst}/{MAX_ATTEMPTS})"
            )
        if self.quarantined:
            lines.append(
                f"QUARANTINE: {self.quarantined} corrupt record(s) moved "
                f"aside (see queue_dir/quarantine/)"
            )
        if self.manifest:
            lines.append(
                f"run {self.manifest.get('run_id', '?')}: "
                f"enqueue {self.enqueue}, "
                f"generation {self.manifest.get('generation', '?')}"
            )
        elif self.enqueue not in ("none", ""):
            lines.append(f"enqueue {self.enqueue}")
        if self.spool_backlog:
            lines.append(
                f"SPOOL: {self.spool_backlog} result(s) parked on "
                f"worker-local disk awaiting store recovery"
            )
        if self.coordinator:
            state = "live" if self.coordinator.get("live") else "EXPIRED"
            lines.append(
                f"coordinator {self.coordinator.get('owner', '?')} "
                f"({state} lease)"
            )
        now = time.time()
        for worker in self.workers:
            # Clamp: last_seen is the *writer's* clock; on a skewed host
            # it can sit ahead of ours, and a negative age would report
            # bogus liveness.
            age = max(0.0, now - worker.get("last_seen", now))
            lines.append(
                f"worker {worker.get('worker_id', '?'):<20} "
                f"{worker.get('hostname', '?'):<12} "
                f"cells={worker.get('cells_done', 0):<4} "
                f"seen {age:5.1f}s ago"
            )
        return "\n".join(lines)


def _decode_batch_line(record: object) -> tuple[str, dict] | None:
    """``(key, spec)`` of one batch line, or None for a malformed one."""
    try:
        return str(record["key"]), record["spec"]
    except (KeyError, TypeError):
        return None


class WorkQueue:
    """One shared-directory queue of lease-able experiment cells."""

    def __init__(
        self,
        root: str | os.PathLike,
        lease_ttl: float = 30.0,
        create: bool = True,
        store: Store | None = None,
    ) -> None:
        self.root = Path(root)
        if not create and not self.root.is_dir():
            raise FileNotFoundError(f"work queue not found: {self.root}")
        self.store = store if store is not None else Store()
        self.tasks_dir = self.root / "tasks"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self.results_dir = self.root / "results"
        self.quarantine_dir = self.root / "quarantine"
        self.workers_dir = self.root / "workers"
        self.metrics_dir = self.root / "metrics"
        self.staging_dir = self.root / "staging"
        if create:
            for path in (
                self.root, self.tasks_dir, self.done_dir, self.failed_dir,
                self.results_dir, self.quarantine_dir, self.workers_dir,
                self.metrics_dir, self.staging_dir,
            ):
                path.mkdir(parents=True, exist_ok=True)
        self.leases = LeaseBoard(
            self.root / "leases", ttl=lease_ttl, store=self.store
        )
        # Published batch files are immutable (re-publication is a new
        # generation under a new name), so their parsed specs are cached
        # by filename for the lifetime of this queue handle.
        self._batch_cache: dict[str, dict[str, dict]] = {}

    @classmethod
    def attach(
        cls,
        queue: "WorkQueue | str | os.PathLike",
        lease_ttl: float | None = None,
    ) -> "WorkQueue":
        """An *existing* queue from a handle or its directory path;
        ``lease_ttl`` (when given) overrides the lease expiry."""
        if not isinstance(queue, cls):
            return cls(queue, lease_ttl=lease_ttl or 30.0, create=False)
        if lease_ttl is not None:
            queue.leases.ttl = float(lease_ttl)
        return queue

    def use_store(self, store: Store) -> None:
        """Route this queue (and its lease board) through ``store``.

        Workers install their own seam here so every queue/lease
        operation the worker performs retries with its seeded jitter
        and counts into its metrics.
        """
        self.store = store
        self.leases.store = store

    # -- execution context ------------------------------------------------

    def write_meta(self, **meta) -> None:
        """Publish shared execution context (telemetry dir, timeouts, …).

        Written by whoever enqueues the grid so that late-joining
        ``repro work`` processes follow its telemetry directory and cell
        deadline without per-worker flags. Workers read the keys they
        know and ignore the rest, so a document from an older writer
        still drains.
        """
        self.store.atomic_write_json(self.root / "meta.json", meta)

    def read_meta(self) -> dict:
        try:
            return self.store.read_json(self.root / "meta.json")
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    # -- run manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def read_manifest(self) -> RunManifest | None:
        """The run manifest, or None for a queue that never had one.

        Raises :class:`~repro.dist.manifest.ManifestCorrupt` when a
        manifest exists but cannot be trusted (bad CRC, unparseable
        JSON, malformed document) — callers decide whether to
        quarantine-and-rebuild (the coordinator) or merely report (the
        doctor, ``queue-status``).
        """
        try:
            payload = self.store.read_json(self.manifest_path)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise ManifestCorrupt(f"manifest is not JSON: {exc}") from None
        body, verdict = verify_sealed_payload(payload)
        if verdict is False:
            raise ManifestCorrupt("manifest failed its CRC32 checksum")
        try:
            return RunManifest.from_json_dict(body)
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestCorrupt(f"manifest is malformed: {exc}") from None

    def write_manifest(self, manifest: RunManifest) -> None:
        """Atomically publish ``manifest`` (CRC-sealed, last-wins)."""
        self.store.atomic_write_json(
            self.manifest_path, seal_json_payload(manifest.to_json_dict())
        )

    def quarantine_manifest(self, reason: str) -> None:
        """Move an untrustworthy manifest aside, with provenance."""
        try:
            raw = self.manifest_path.read_text()
        except OSError:
            raw = ""
        self._quarantine("manifest", 1, raw, reason)
        try:
            self.store.unlink(self.manifest_path)
        except FileNotFoundError:
            pass

    # -- batch specs -------------------------------------------------------

    def stage_batch(
        self,
        tasks: list[ExperimentTask],
        name: str,
        keys: list[str] | None = None,
    ) -> Path:
        """Write one generation's specs as a single sealed-JSONL file in
        ``staging/`` — unpublished until the manifest seal promotes it.

        One atomic create for the whole generation (the 10⁶-cells →
        10⁶-creates fix), deterministic content for a deterministic
        grid, so re-staging after a crash rewrites the identical file.
        ``keys`` are the tasks' keys when the caller already hashed
        them (each hash re-canonicalises the whole config).
        """
        self.staging_dir.mkdir(parents=True, exist_ok=True)
        if keys is None:
            keys = [task.key() for task in tasks]
        lines = [
            seal_line(json.dumps(
                {"key": key, "spec": task.to_json_dict()}, sort_keys=True,
            ))
            for key, task in zip(keys, tasks)
        ]
        path = self.staging_dir / name
        self.store.atomic_write_text(path, "\n".join(lines) + "\n")
        return path

    def promote_staged(self, names: tuple[str, ...] | list[str]) -> list[str]:
        """Move sealed batch files from ``staging/`` into ``tasks/``.

        Idempotent: a name with nothing in staging was already promoted
        (or never staged on this generation) and is skipped. Only ever
        called with the batch list of a *sealed* manifest — the seal is
        the publication point.
        """
        promoted = []
        for name in names:
            src = self.staging_dir / name
            try:
                self.store.replace(src, self.tasks_dir / name)
            except FileNotFoundError:
                continue
            promoted.append(name)
        return promoted

    def _load_batch(self, path: Path) -> dict[str, dict]:
        """Parse one published batch file into ``{key: spec_dict}``.

        Corrupt lines are quarantined with provenance and skipped — the
        coordinator's resume path re-stages any key whose spec went
        missing, so a mangled line costs a re-enqueue, not a cell.
        """
        cached = self._batch_cache.get(path.name)
        if cached is not None:
            return cached
        try:
            text = self.store.read_text(path)
        except FileNotFoundError:
            return {}
        specs: dict[str, dict] = {}
        for line in scan_sealed_jsonl(text, _decode_batch_line):
            if line.verdict == OK:
                specs.setdefault(*line.value)
            else:
                # The file was published whole (atomic replace), so even
                # an unsealed bad last line is damage, not a torn write.
                self._quarantine(
                    path.name, line.line_no, line.raw,
                    f"batch spec line {line.reason or 'failed to parse'}",
                )
        self._batch_cache[path.name] = specs
        return specs

    def _batches(self) -> list[dict[str, dict]]:
        """Every published batch's specs, in generation order."""
        return [
            self._load_batch(path)
            for path in sorted(self.tasks_dir.glob("batch-*.jsonl"))
        ]

    # -- task records -----------------------------------------------------

    def task_keys(self) -> list[str]:
        """Every enqueued cell key, sorted for a stable scan order."""
        return sorted({key for batch in self._batches() for key in batch})

    def load_task(self, key: str) -> ExperimentTask:
        """The task spec of one enqueued cell.

        Specs were checksum-verified when their batch file was parsed
        (a line failing its seal is quarantined and never becomes a
        key), so an unknown key — never enqueued, or its line was
        quarantined — raises ``FileNotFoundError``. A spec that hashes
        to another key raises ``ValueError``: run, it would be published
        and marked done under that other key, leaving this cell
        claimable forever; failing instead lets ``MAX_ATTEMPTS`` poison it.
        """
        for batch in self._batches():  # the earliest generation wins
            if key in batch:
                task = ExperimentTask.from_json_dict(batch[key])
                if task.key() != key:
                    raise ValueError(
                        f"task spec queued under {key} hashes to "
                        f"{task.key()}; refusing to run it"
                    )
                return task
        raise FileNotFoundError(
            f"no task spec for {key} under {self.tasks_dir}"
        )

    # -- completion -------------------------------------------------------

    def is_done(self, key: str) -> bool:
        return (self.done_dir / f"{key}.json").exists()

    def done_keys(self) -> set[str]:
        return {path.stem for path in self.done_dir.glob("*.json")}

    def mark_done(self, key: str, worker_id: str) -> None:
        """Write the O(1) completion marker (idempotent last-wins)."""
        self.store.atomic_write_json(
            self.done_dir / f"{key}.json",
            {"worker_id": worker_id, "hostname": socket.gethostname(),
             "finished_at": time.time()},
        )

    # -- failures ---------------------------------------------------------

    def record_failure(self, key: str, worker_id: str, error: str) -> int:
        """Record one failed execution attempt; returns the new count."""
        attempt = self.failure_count(key) + 1
        self.store.atomic_write_json(
            self.failed_dir / f"{key}-{attempt}-{worker_id}.json",
            {"key": key, "worker_id": worker_id, "attempt": attempt,
             "error": error, "at": time.time()},
        )
        return self.failure_count(key)

    def failure_count(self, key: str) -> int:
        return len(self._failure_names(key))

    def _failure_names(self, key: str) -> list[str]:
        """``key``'s ``failed/<key>-*.json`` names, from one listing."""
        prefix = f"{key}-"
        try:
            names = os.listdir(self.failed_dir)
        except FileNotFoundError:
            return []
        return [n for n in names if n.startswith(prefix) and n.endswith(".json")]

    def failures(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for path in self.failed_dir.glob("*.json"):
            key = path.stem.split("-")[0]
            counts[key] = counts.get(key, 0) + 1
        return counts

    def poisoned(self, key: str) -> bool:
        """Whether ``key`` has exhausted its re-issue budget."""
        return self.failure_count(key) >= MAX_ATTEMPTS

    def frontier(self) -> Frontier:
        """The cells still owed, from one ``done/`` and one ``failed/``
        listing (not a ``stat`` and a directory glob per key).

        A snapshot: a cell may finish right after it was taken, which
        is why a claimer re-checks :meth:`is_done` once it holds the
        lease.
        """
        done = self.done_keys()
        failures = self.failures()
        claimable, poisoned = [], []
        for key in self.task_keys():
            if key in done:
                continue
            if failures.get(key, 0) >= MAX_ATTEMPTS:
                poisoned.append(key)
            else:
                claimable.append(key)
        return Frontier(claimable, poisoned)

    def failure_errors(self, key: str) -> list[str]:
        paths = (self.failed_dir / name for name in self._failure_names(key))
        return [doc.get("error", "?") for doc in self._read_docs(paths)]

    def _read_docs(self, paths: Iterable[Path]) -> list[dict]:
        """Every readable JSON document of ``paths``, in name order; an
        unreadable file is skipped."""
        out = []
        for path in sorted(paths):
            try:
                out.append(self.store.read_json(path))
            except (json.JSONDecodeError, OSError):
                continue
        return out

    # -- quarantine -------------------------------------------------------

    def _quarantine(
        self, origin: str, line_no: int, raw: str, reason: str
    ) -> None:
        """Move one detected-corrupt record aside, with provenance.

        Idempotent: the record name hashes the raw bytes, so re-merging
        the same corrupt shard never double-counts. Quarantining is
        best-effort — a store failure here is logged, not raised, so a
        flaky quarantine write can never take down a merge.
        """
        digest = f"{zlib.crc32(raw.encode('utf-8', 'replace')) & 0xFFFFFFFF:08x}"
        name = f"{origin}-L{line_no}-{digest}.json"
        record = {
            "origin": origin,
            "line_no": line_no,
            "reason": reason,
            "raw": raw[:4096],
            "detected_at": time.time(),
            "detected_by": f"{socket.gethostname()}-{os.getpid()}",
        }
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path = self.quarantine_dir / name
            if not path.exists():
                self.store.atomic_write_json(path, record)
        except OSError as exc:
            _log.warning(
                "failed to write quarantine record",
                extra=kv(origin=origin, line_no=line_no, error=str(exc)),
            )
        else:
            _log.warning(
                "quarantined corrupt record",
                extra=kv(origin=origin, line_no=line_no, reason=reason),
            )
            if self.store.metrics is not None:
                self.store.metrics.counter("store.quarantined").inc()

    def quarantined(self) -> list[dict]:
        """Every quarantine record (missing dir → [])."""
        return self._read_docs(self.quarantine_dir.glob("*.json"))

    def quarantine_count(self) -> int:
        return sum(1 for _ in self.quarantine_dir.glob("*.json"))

    # -- journal shards ---------------------------------------------------

    def shard_path(self, worker_id: str) -> Path:
        return self.results_dir / f"journal-{worker_id}.jsonl"

    def publish(self, worker_id: str, *results: TaskResult) -> None:
        """Durably append ``results`` to the worker's own journal shard
        — one line each, one fsync for all of them (group commit) —
        then flip their done markers. Ordering matters: a crash between
        the two re-issues the cells, and the duplicate rows merge away.
        Lines carry a CRC32 seal so later corruption is detected, not
        merged; a write torn mid-batch leaves whole lines that merge
        and one fragment that does not.
        """
        self.store.fsync_append(
            self.shard_path(worker_id),
            "\n".join(result.to_sealed_line() for result in results),
        )
        for result in results:
            self.mark_done(result.key, worker_id)

    def merged_results(self) -> dict[str, TaskResult]:
        """All shards merged by key — corruption detected, not absorbed.

        Duplicate keys across shards come only from straggler re-issues
        and are bit-identical by construction, so the first shard wins.
        The shared reader's verdicts decide each line's fate: a **torn
        tail** (the writer died mid-append) is skipped silently and the
        cell re-issues; a **corrupt** line (bad seal, sealed but not a
        well-formed result, or an unparseable interior line — the
        storage layer mangled a record that was once written whole) is
        quarantined with provenance, never silently dropped.
        """
        merged: dict[str, TaskResult] = {}
        for shard in sorted(self.results_dir.glob("journal-*.jsonl")):
            try:
                text = self.store.read_text(shard)
            except FileNotFoundError:
                continue
            for line in scan_sealed_jsonl(text, TaskResult.decode):
                if line.verdict == OK:
                    merged.setdefault(line.value.key, line.value)
                elif line.verdict == CORRUPT:
                    self._quarantine(
                        shard.name, line.line_no, line.raw,
                        f"journal line {line.reason}",
                    )
        return merged

    # -- worker registry --------------------------------------------------

    def register_worker(self, worker_id: str, **info) -> None:
        self.store.atomic_write_json(
            self.workers_dir / f"{worker_id}.json",
            {"worker_id": worker_id, "hostname": socket.gethostname(),
             "pid": os.getpid(), "last_seen": time.time(), **info},
        )

    def workers(self) -> list[dict]:
        return self._read_docs(self.workers_dir.glob("*.json"))

    # -- worker metrics snapshots ------------------------------------------

    def write_worker_metrics(self, worker_id: str, snapshot: dict) -> None:
        """Publish one worker's metrics snapshot (atomic last-wins).

        Workers write these unconditionally (telemetry on or off) — they
        are how ``repro queue-status --watch`` computes throughput and
        ETA, and what a telemetry-enabled coordinator aggregates via
        :func:`repro.obs.metrics.merge_snapshots`.
        """
        # Queues created before metrics snapshots existed lack the dir.
        self.metrics_dir.mkdir(parents=True, exist_ok=True)
        self.store.atomic_write_json(
            self.metrics_dir / f"{worker_id}.json", snapshot
        )

    def worker_metrics(self) -> list[dict]:
        """Every worker's latest metrics snapshot (missing dir → [])."""
        return self._read_docs(self.metrics_dir.glob("*.json"))

    def spool_backlog(self) -> int:
        """Results parked on worker-local disk awaiting store recovery,
        summed over the workers' metrics snapshots."""
        backlog = 0
        for snap in self.worker_metrics():
            counters = snap.get("counters", {})
            backlog += max(
                0,
                int(counters.get("store.degraded_entries", 0))
                - int(counters.get("store.spool_flushed", 0)),
            )
        return backlog

    def _throughput(self, pending: int) -> tuple[float | None, float | None]:
        """(cells/sec, eta seconds) from the workers' snapshots.

        Each snapshot contributes its worker's own lifetime rate; rates
        add because the workers execute concurrently. Exited workers
        stop contributing once any live worker has a snapshot, so the
        ETA tracks the surviving capacity of an elastic pool. Elapsed
        times difference the *writer's own* clock against itself, so
        cross-host skew cannot produce a bogus rate — negatives are
        discarded by the ``elapsed > 0`` guard regardless.
        """
        snaps = self.worker_metrics()
        live = [s for s in snaps if not s.get("exited")]
        rate = 0.0
        for snap in live or snaps:
            elapsed = float(snap.get("t", 0.0)) - float(snap.get("started_at", 0.0))
            cells = int(snap.get("cells_done", 0))
            if elapsed > 0.0 and cells > 0:
                rate += cells / elapsed
        if rate <= 0.0:
            return (None, None)
        eta = pending / rate if pending > 0 else 0.0
        return (rate, eta)

    # -- status -----------------------------------------------------------

    def status(self) -> QueueStatus:
        keys = self.task_keys()
        done = self.done_keys()
        live = expired = 0
        now = time.time()
        claimed = set()
        coordinator = None
        for lease in self.leases.leases():
            if lease.key.startswith("__"):
                # Reserved (non-task) leases — the coordinator leader
                # lease — are reported separately, never as cell claims.
                coordinator = {
                    "owner": lease.owner,
                    "live": not lease.expired(now),
                    "expires_at": lease.expires_at,
                    "renewals": lease.renewals,
                }
                continue
            if lease.key in done:
                continue
            claimed.add(lease.key)
            if lease.expired(now):
                expired += 1
            else:
                live += 1
        unclaimed = sum(1 for k in keys if k not in done and k not in claimed)
        n_done = sum(1 for k in keys if k in done)
        rate, eta = self._throughput(pending=len(keys) - n_done)
        workers = self.workers()
        for worker in workers:
            # Age clamped at zero: `last_seen` came from the writer's
            # clock, which may run ahead of this reader's on another
            # host; a negative age is always clock skew, never data.
            worker["age_s"] = max(0.0, now - worker.get("last_seen", now))
        manifest_info = None
        enqueue = "none"
        try:
            manifest = self.read_manifest()
        except ManifestCorrupt:
            enqueue = "corrupt"
        else:
            if manifest is not None:
                enqueue = manifest.state
                manifest_info = {
                    "run_id": manifest.run_id,
                    "state": manifest.state,
                    "generation": manifest.generation,
                    "cells": len(manifest.keys),
                    "batches": list(manifest.batches),
                }
        return QueueStatus(
            total=len(keys),
            done=n_done,
            leased_live=live,
            leased_expired=expired,
            unclaimed=unclaimed,
            failed_keys=self.failures(),
            workers=workers,
            cells_per_sec=rate,
            eta_s=eta,
            quarantined=self.quarantine_count(),
            manifest=manifest_info,
            enqueue=enqueue,
            spool_backlog=self.spool_backlog(),
            coordinator=coordinator,
        )
