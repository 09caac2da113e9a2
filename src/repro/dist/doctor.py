"""``repro doctor``: audit (and repair) a queue directory after an
incident.

The queue's crash-safety story means *no* leftover state is fatal — a
re-run resumes through the manifest, leases age out, duplicate
publishes merge away. But an operator staring at a directory after a
bad night still needs to know what state it is in and what can be
cleaned. :func:`audit_queue` walks one queue directory and reports
every anomaly it understands, each as a :class:`Finding` with a
severity and (where safe) a mechanical repair:

* an unreadable/corrupt run manifest (repair: quarantine it — the next
  coordinator rebuilds it deterministically);
* a *staged* manifest, i.e. an enqueue that died in flight (resume by
  re-running the dispatch; nothing to repair mechanically);
* sealed-but-unpromoted batch files (repair: finish the promotion —
  it is idempotent);
* orphan staging files no manifest references (repair: delete);
* a dead coordinator's leader lease (repair: force-release);
* orphan leases on cells already done, and expired leases on pending
  cells (repair: force-release / reap);
* leftover reap tombstones (repair: delete);
* stale worker registrations that stopped heartbeating without an exit
  record (repair: mark exited+stale);
* leftover atomic-write temp files (repair: delete);
* poisoned cells, pending-vs-complete inconsistencies, quarantine
  contents and spool backlog (report-only — these need a human).

Dry-run by default; ``repair=True`` (CLI ``--repair``) applies the
mechanical repairs. ``DoctorReport.ok`` is True when nothing
unrepaired at warning-or-worse severity remains — the contract the CI
rehearsal asserts after a crash-and-resume cycle.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from repro.dist.manifest import ManifestCorrupt, leader_dead
from repro.dist.queue import MAX_ATTEMPTS, WorkQueue
from repro.obs.logbridge import get_logger, kv

__all__ = ["audit_queue", "DoctorReport", "Finding"]

_log = get_logger("repro.dist.doctor")

SEVERITIES = ("info", "warn", "error")


@dataclass
class Finding:
    """One anomaly the doctor understands."""

    check: str
    severity: str  # info | warn | error
    path: str
    detail: str
    #: what --repair would do (empty: report-only)
    repair: str = ""
    #: whether the repair was applied this audit
    repaired: bool = False

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "severity": self.severity,
            "path": self.path,
            "detail": self.detail,
            "repair": self.repair,
            "repaired": self.repaired,
        }


@dataclass
class DoctorReport:
    """Everything one audit pass found (and possibly repaired)."""

    queue_dir: str
    repair: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No unrepaired finding at warning-or-worse severity."""
        return not any(
            f.severity in ("warn", "error") and not f.repaired
            for f in self.findings
        )

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "queue_dir": self.queue_dir,
            "repair": self.repair,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [f.to_json_dict() for f in self.findings],
        }

    def summary(self) -> str:
        if not self.findings:
            return f"{self.queue_dir}: clean — nothing to report"
        lines = []
        for f in self.findings:
            state = (
                "repaired"
                if f.repaired
                else (f"repairable: {f.repair}" if f.repair else "report-only")
            )
            lines.append(
                f"[{f.severity:<5}] {f.check:<22} {f.path}\n"
                f"        {f.detail} ({state})"
            )
        counts = self.counts()
        verdict = "OK" if self.ok else "NOT OK"
        lines.append(
            f"{verdict}: {counts['error']} error(s), {counts['warn']} "
            f"warning(s), {counts['info']} note(s)"
            + ("" if self.repair else " — dry run; use --repair to act")
        )
        return "\n".join(lines)


class _Audit:
    def __init__(self, queue: WorkQueue, repair: bool, stale_worker_s: float):
        self.queue = queue
        self.repair = repair
        self.stale_worker_s = stale_worker_s
        self.report = DoctorReport(
            queue_dir=str(queue.root), repair=repair
        )

    def add(
        self, check: str, severity: str, path, detail: str,
        repair: str = "", fix=None,
    ) -> Finding:
        finding = Finding(
            check=check, severity=severity, path=str(path), detail=detail,
            repair=repair,
        )
        if self.repair and fix is not None:
            try:
                fix()
            except OSError as exc:
                finding.detail += f" [repair failed: {exc}]"
            else:
                finding.repaired = True
        self.report.findings.append(finding)
        return finding

    # -- checks ------------------------------------------------------------

    def manifest(self):
        queue = self.queue
        try:
            manifest = queue.read_manifest()
        except ManifestCorrupt as exc:
            self.add(
                "manifest-corrupt", "error", queue.manifest_path, str(exc),
                repair="quarantine the manifest (the next coordinator "
                       "run rebuilds it deterministically)",
                fix=lambda: queue.quarantine_manifest(str(exc)),
            )
            return None
        if manifest is None:
            self.add(
                "manifest-missing", "info", queue.manifest_path,
                "no run manifest (pre-manifest queue, or never "
                "coordinator-run); nothing wrong, nothing resumable",
            )
            return None
        if manifest.state == "staged":
            self.add(
                "manifest-staged", "warn", queue.manifest_path,
                f"enqueue generation {manifest.generation} died in "
                f"flight (manifest staged, never sealed); re-run the "
                f"dispatch to resume it",
            )
        return manifest

    def batches(self, manifest):
        queue = self.queue
        referenced = set(manifest.batches) if manifest is not None else set()
        staged_state = manifest is not None and manifest.state == "staged"
        if manifest is not None and manifest.state in ("sealed", "complete"):
            for name in manifest.batches:
                src = queue.staging_dir / name
                if src.exists():
                    self.add(
                        "batch-unpromoted", "warn", src,
                        "sealed manifest references this batch but it "
                        "was never promoted into tasks/ (crash between "
                        "seal and promote)",
                        repair="promote it (idempotent rename)",
                        fix=lambda n=name: queue.promote_staged((n,)),
                    )
        if queue.staging_dir.is_dir():
            for path in sorted(queue.staging_dir.iterdir()):
                if staged_state and path.name in referenced:
                    continue  # part of the interrupted enqueue above
                if path.name in referenced:
                    continue  # handled as batch-unpromoted
                self.add(
                    "staging-orphan", "warn", path,
                    "staging file no manifest references (enqueue died "
                    "before its manifest was written, or a stale "
                    "generation)",
                    repair="delete it (staged specs are re-derived "
                           "deterministically)",
                    fix=lambda p=path: p.unlink(),
                )

    def leases(self, done: set):
        queue = self.queue
        now = time.time()
        for lease in queue.leases.leases():
            path = queue.leases._path(lease.key)
            if lease.key.startswith("__"):
                if leader_dead(lease, now):
                    self.add(
                        "coordinator-dead", "warn", path,
                        f"leader lease held by {lease.owner} "
                        f"({'expired' if lease.expired(now) else 'dead local pid'}); "
                        f"a re-run takes the run over",
                        repair="force-release the leader lease",
                        fix=lambda k=lease.key: queue.leases.force_release(k),
                    )
                else:
                    self.add(
                        "coordinator-live", "info", path,
                        f"coordinator {lease.owner} holds a live leader "
                        f"lease — the run is being driven right now",
                    )
                continue
            if lease.key in done:
                self.add(
                    "lease-orphan", "warn", path,
                    f"lease by {lease.owner} on a cell that is already "
                    f"done (worker died between publish and release)",
                    repair="force-release it",
                    fix=lambda k=lease.key: queue.leases.force_release(k),
                )
            elif lease.expired(now):
                self.add(
                    "lease-expired", "warn", path,
                    f"expired lease by {lease.owner} on a pending cell "
                    f"(owner stopped heartbeating); any worker would "
                    f"reap it on scan",
                    repair="reap it now",
                    fix=lambda k=lease.key: queue.leases.reap(k),
                )
        tombs = queue.leases._tombstones
        if tombs.is_dir():
            for path in sorted(tombs.iterdir()):
                self.add(
                    "reap-tombstone", "info", path,
                    "leftover reap tombstone (reaper died mid-reap); "
                    "harmless",
                    repair="delete it",
                    fix=lambda p=path: p.unlink(),
                )

    def cells(self, manifest, done: set):
        queue = self.queue
        keys = queue.task_keys()
        live_pending, poisoned = queue.frontier()
        for key in poisoned:
            self.add(
                "cell-poisoned", "warn", queue.tasks_dir / key,
                f"cell failed {queue.failure_count(key)}/{MAX_ATTEMPTS} "
                f"attempts and was withdrawn; see failed/ for errors",
            )
        if live_pending and manifest is not None and manifest.complete:
            self.add(
                "complete-but-pending", "error", queue.manifest_path,
                f"manifest says complete but {len(live_pending)} "
                f"cell(s) have no done marker — the completion flip "
                f"was wrong or done markers were lost",
            )
        elif live_pending:
            self.add(
                "cells-pending", "info", queue.tasks_dir,
                f"{len(live_pending)} cell(s) pending — workers (or a "
                f"dispatch re-run) will drain them",
            )
        if manifest is not None:
            specless = [
                k for k in manifest.keys
                if k not in set(keys) and k not in done
            ]
            if specless:
                self.add(
                    "spec-missing", "warn", queue.tasks_dir,
                    f"{len(specless)} manifest key(s) have neither a "
                    f"task spec nor a done marker (lost/corrupt batch "
                    f"lines); a dispatch re-run re-stages them",
                )

    def workers(self):
        queue = self.queue
        now = time.time()
        for worker in queue.workers():
            worker_id = worker.get("worker_id", "?")
            if worker.get("exited"):
                continue
            age = now - float(worker.get("last_seen", now))
            if age <= self.stale_worker_s:
                continue
            path = queue.workers_dir / f"{worker_id}.json"

            def fix(rec=dict(worker), p=path):
                rec.update(exited=True, stale=True)
                queue.store.atomic_write_json(p, rec)

            self.add(
                "worker-stale", "warn", path,
                f"worker {worker_id} last seen {age:.0f}s ago with no "
                f"exit record (crashed or partitioned)",
                repair="mark it exited (stale) so status stops "
                       "counting it",
                fix=fix,
            )

    def debris(self):
        queue = self.queue
        for path in sorted(queue.root.rglob(".*.tmp")):
            self.add(
                "tmp-debris", "info", path,
                "leftover atomic-write temp file (writer crashed "
                "mid-replace); harmless",
                repair="delete it",
                fix=lambda p=path: p.unlink(),
            )
        n_quarantined = queue.quarantine_count()
        if n_quarantined:
            self.add(
                "quarantine", "warn", queue.quarantine_dir,
                f"{n_quarantined} quarantined corrupt record(s) with "
                f"provenance — inspect before deleting; the cells were "
                f"re-issued, no data was merged from them",
            )
        spool = queue.spool_backlog()
        if spool:
            self.add(
                "spool-backlog", "warn", queue.metrics_dir,
                f"{spool} result(s) spooled on worker-local disk and "
                f"never flushed (store outage outlived the worker); "
                f"the cells re-issue bit-identically, or salvage the "
                f"spool per the worker's exit message",
            )


def audit_queue(
    queue_dir: str | os.PathLike,
    *,
    repair: bool = False,
    stale_worker_s: float = 300.0,
) -> DoctorReport:
    """Audit one queue directory; see the module docstring for checks.

    Dry-run unless ``repair``; raises ``FileNotFoundError`` when
    ``queue_dir`` is not a queue directory, and ``ValueError`` when
    ``stale_worker_s`` is not a finite number >= 0 (no age compares
    true against NaN, so every live worker would read as stale).
    """
    if not 0 <= stale_worker_s < math.inf:
        raise ValueError(
            f"stale_worker_s must be a finite number >= 0, got {stale_worker_s!r}"
        )
    queue = WorkQueue(queue_dir, create=False)
    audit = _Audit(queue, repair=repair, stale_worker_s=stale_worker_s)
    manifest = audit.manifest()
    done = queue.done_keys()
    audit.batches(manifest)
    audit.leases(done)
    audit.cells(manifest, done)
    audit.workers()
    audit.debris()
    _log.info(
        "queue audited",
        extra=kv(
            queue=str(queue.root), findings=len(audit.report.findings),
            ok=audit.report.ok, repair=repair,
        ),
    )
    return audit.report
