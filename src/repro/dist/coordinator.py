"""Queue-mode grid dispatch: enqueue, launch workers, collect.

:func:`dispatch_tasks` is what :class:`~repro.exp.runner.ExperimentRunner`
delegates to when it was given a ``queue_dir``. It plays the
*coordinator* role of the lease protocol — which is deliberately thin,
because the protocol is serverless: the coordinator seals the run
manifest (the deterministic grid expansion, published by an atomic
batch enqueue — see :mod:`repro.dist.manifest`), hands N local worker
slots to a :class:`~repro.dist.supervise.WorkerSupervisor` (the one
launcher of worker processes), and then runs the one dispatch loop:
each pass steps the launcher (worker exits, strikes, respawns) and
reads the queue, then sleeps until a local worker exits, at most
``POLL_INTERVAL_S``, until every cell is done. Expired leases are
reaped by the workers, on claim. External workers (``repro work
--queue DIR`` on any host sharing the directory) can join or leave at
any point; the coordinator neither knows nor cares who executes a cell,
because completion is defined by the queue state, not by its children.

The coordinator itself is crash-safe. It holds a **leader lease** (the
reserved ``__coordinator__`` key on the ordinary lease board) renewed by
the ordinary heartbeat thread, so any re-invocation of the same dispatch
against the same queue directory does the right thing:

* the previous coordinator is **alive** → attach: poll the queue and
  return the leader's merge once the manifest completes;
* it is **dead** → take over: the stale lease is reaped on expiry (or
  released immediately when the owner is a dead local pid), the
  interrupted enqueue resumes from the manifest state machine, and the
  drain continues from done-markers/journals — merged metrics are
  bit-identical to an uninterrupted run.

``supervise`` only picks the launcher's crash budget: ``False`` never
respawns (the breaker opens on a slot's first crash), ``True`` respawns
crashed workers with exponential backoff until the crash-loop breaker
opens. Either way every cell a crashed worker held takes a failure
strike and is released at once, so a worker-killing cell poisons at
``MAX_ATTEMPTS`` instead of being re-issued forever (and cells with a
strike on record are never batched with others, so an innocent
batch-mate takes at most one).

Liveness guarantee: if every local worker is gone (crashes, OOM,
operator SIGKILL, every breaker open) while cells remain and no
external worker shows up within a lease ttl, the coordinator drains the
remainder *inline* — the grid always terminates with the same
bit-identical results.
"""

from __future__ import annotations

import os
import time

from repro.dist.manifest import (
    COORDINATOR_KEY,
    RunManifest,
    coordinator_owner,
    ensure_enqueued,
    leader_dead,
)
from repro.dist.queue import WorkQueue
from repro.dist.supervise import DEFAULT_MAX_CRASHES, POLL_INTERVAL_S, WorkerSupervisor
from repro.dist.worker import Heartbeat, QueueWorker
from repro.exp.records import ExperimentTask, TaskResult
from repro.obs import runtime as _obs_runtime
from repro.obs.logbridge import get_logger, kv
from repro.obs.metrics import merge_snapshots

__all__ = ["dispatch_tasks"]

_log = get_logger("repro.dist.coordinator")


def _acquire_leadership(
    queue: WorkQueue,
    owner: str,
    keys: list[str],
) -> dict[str, TaskResult] | None:
    """Claim the coordinator leader lease, or attach to a live leader.

    Returns ``None`` once *this* process holds the lease (possibly
    after taking over from a dead leader), or the finished run's merged
    results when a live leader carried the run to completion while we
    watched — the attach path of a double-invoked ``repro run --queue``.
    """
    session = _obs_runtime.session
    attached = False
    while True:
        if queue.leases.try_claim(COORDINATOR_KEY, owner):
            if attached and session is not None:
                session.event("run_takeover", queue=str(queue.root))
            if attached:
                _log.warning(
                    "previous coordinator gone; taking the run over",
                    extra=kv(queue=str(queue.root), owner=owner),
                )
            return None
        lease = queue.leases.read(COORDINATOR_KEY)
        if lease is None:
            continue  # released/reaped between claim and read: retry
        now = time.time()
        if lease.expired(now):
            queue.leases.reap(COORDINATOR_KEY, now)
            attached = True
            continue
        if leader_dead(lease, now):
            # Same host, pid gone: no need to wait out the ttl.
            queue.leases.force_release(COORDINATOR_KEY)
            attached = True
            continue
        if not attached:
            attached = True
            _log.info(
                "live coordinator holds this run; attaching",
                extra=kv(queue=str(queue.root), leader=lease.owner),
            )
            if session is not None:
                session.event(
                    "run_attach", queue=str(queue.root), leader=lease.owner
                )
        # A live leader is driving. If it finished a run covering our
        # grid, its merge is our answer; otherwise keep watching.
        try:
            manifest = queue.read_manifest()
        except Exception:
            manifest = None
        if (
            manifest is not None
            and manifest.complete
            and set(keys) <= set(manifest.keys)
        ):
            merged = queue.merged_results()
            if all(k in merged for k in keys):
                _log.info(
                    "attached run complete; returning leader's merge",
                    extra=kv(cells=len(keys)),
                )
                return {k: merged[k] for k in keys}
        time.sleep(POLL_INTERVAL_S)


def _retire(queue: WorkQueue, owner: str) -> None:
    """Unlink the coordinator's lease token names at exit (best-effort:
    a stray token is one small file)."""
    try:
        queue.leases.retire(owner)
    except OSError:
        pass


def dispatch_tasks(
    queue_dir: str | os.PathLike,
    tasks: list[ExperimentTask],
    *,
    n_workers: int = 1,
    lease_ttl: float = 30.0,
    mp_start_method: str | None = None,
    cell_timeout_s: float | None = None,
    supervise: bool = False,
) -> dict[str, TaskResult]:
    """Run ``tasks`` through a shared-directory queue; results by key.

    Seals the run manifest and publishes the cells in one atomic batch
    (re-dispatching a half-finished — or half-*enqueued* — grid into
    the same directory resumes it), launches ``n_workers`` local worker
    processes (respawned with backoff after a crash when ``supervise``,
    never otherwise), and coordinates until every cell has a published
    result, draining inline if all workers are lost with no elastic
    replacement in sight.
    """
    queue = WorkQueue(queue_dir, lease_ttl=lease_ttl)
    session = _obs_runtime.session
    keys = [task.key() for task in tasks]
    key_set = set(keys)

    owner = coordinator_owner()
    attached = _acquire_leadership(queue, owner, keys)
    if attached is not None:
        _retire(queue, owner)
        return attached
    if session is not None:
        session.event(
            "run_leader", queue=str(queue.root), owner=owner,
            cells=len(key_set),
        )
    heartbeat = Heartbeat(
        queue, COORDINATOR_KEY, owner, lease_ttl / 4.0,
        metrics=session.metrics if session is not None else None,
    )
    heartbeat.start()

    supervisor = None
    try:
        telemetry_dir = (
            str(session.directory)
            if session is not None and session.directory is not None
            else None
        )
        context_doc = dict(
            # Late-joining `repro work` processes follow the
            # coordinator's telemetry directory without per-worker
            # flags; same for the per-cell execution deadline.
            **({"cell_timeout_s": float(cell_timeout_s)} if cell_timeout_s else {}),
            **({"telemetry": telemetry_dir} if telemetry_dir else {}),
        )
        queue.write_meta(**context_doc)
        manifest = ensure_enqueued(queue, tasks, keys=keys, context=context_doc)
        _log.info(
            "run manifest sealed",
            extra=kv(
                queue=str(queue.root), manifest_run=manifest.run_id,
                generation=manifest.generation, cells=len(key_set),
                workers=n_workers,
            ),
        )

        def outstanding() -> tuple[list[str], list[str]]:
            """This dispatch's cells still owed, and the poisoned ones
            among them, from one frontier snapshot."""
            frontier = queue.frontier()
            poisoned = [k for k in frontier.poisoned if k in key_set]
            owed = [k for k in frontier.claimable if k in key_set]
            return owed + poisoned, poisoned

        if n_workers >= 1 and outstanding()[0]:
            supervisor = WorkerSupervisor(
                queue,
                n_workers,
                max_crashes=DEFAULT_MAX_CRASHES if supervise else 1,
                cell_timeout_s=cell_timeout_s,
                mp_start_method=mp_start_method,
            )

        fallback_deadline: float | None = None
        while True:
            # One pass: step the launcher first, so a crashed worker's
            # strikes are on record before the queue is read.
            supervised = supervisor is not None and not supervisor.step()
            pending, poisoned = outstanding()
            if not pending:
                break
            if session is not None:
                session.metrics.gauge("dist.pending").set(len(pending))
            if poisoned:
                errors = queue.failure_errors(poisoned[0])
                _log.error(
                    "poisoned cell(s) withdrew the grid",
                    extra=kv(poisoned=len(poisoned), first_key=poisoned[0]),
                )
                raise RuntimeError(
                    f"{len(poisoned)} queue cell(s) failed "
                    f"{queue.failure_count(poisoned[0])} attempt(s) and were "
                    f"withdrawn; first error:\n{errors[-1] if errors else '?'}"
                )
            if not supervised:
                # No local worker is running or will be respawned (or
                # none was asked for) with cells still pending. Give an
                # elastic external worker one lease ttl to pick the grid
                # up, then drain inline so the dispatch always terminates.
                now = time.time()
                if fallback_deadline is None:
                    fallback_deadline = now + lease_ttl
                    _log.warning(
                        "all local workers exited with cells pending; "
                        "waiting one lease ttl for elastic pickup",
                        extra=kv(pending=len(pending), ttl_s=lease_ttl),
                    )
                elif now >= fallback_deadline:
                    _log.warning(
                        "no elastic worker appeared; draining inline",
                        extra=kv(pending=len(pending)),
                    )
                    QueueWorker(queue, worker_id=f"coord-{os.getpid()}").run()
                    break
            # Wake the moment a local worker exits — the grid's end, or
            # a crash whose cells want striking — not a poll later.
            if supervisor is not None:
                supervisor.sleep()
            else:
                time.sleep(POLL_INTERVAL_S)
    finally:
        if supervisor is not None:
            supervisor.stop()
        heartbeat.stop()
        try:
            queue.leases.release(COORDINATOR_KEY, owner)
        except OSError:
            pass  # best-effort: an orphan leader lease ages out
        _retire(queue, owner)

    merged = queue.merged_results()
    quarantined = queue.quarantine_count()
    if quarantined:
        _log.warning(
            "merge detected corrupt record(s); quarantined, not dropped",
            extra=kv(quarantined=quarantined, dir=str(queue.quarantine_dir)),
        )
    missing = [k for k in keys if k not in merged]
    if missing:
        raise RuntimeError(
            f"queue dispatch finished with {len(missing)} unpublished "
            f"cell(s): {missing[:4]}{'…' if len(missing) > 4 else ''}"
        )
    _mark_complete(queue, manifest)
    if session is not None:
        session.metrics.gauge("dist.pending").set(0)
        # Roll the workers' published snapshots up into one aggregate
        # beside the coordinator's own metrics (counters/histograms add,
        # gauges latest-wins).
        aggregate = merge_snapshots(queue.worker_metrics())
        if session.directory is not None:
            import json

            (session.directory / "metrics-queue.json").write_text(
                json.dumps(aggregate, sort_keys=True)
            )
        session.event(
            "queue_done",
            cells=len(keys),
            workers_merged=aggregate.get("merged_from", 0),
        )
    _log.info("grid drained", extra=kv(cells=len(keys)))
    return {k: merged[k] for k in keys}


def _mark_complete(queue: WorkQueue, manifest: RunManifest) -> None:
    """Flip the manifest to ``complete`` once *every* promised cell —
    across all generations, not just this dispatch's — is done; elastic
    ``--wait`` workers key their exit off this. Best-effort: a store
    flake here costs a worker some extra polling, never correctness."""
    from dataclasses import replace

    if manifest.complete:
        return
    try:
        done = queue.done_keys()
        if set(manifest.keys) <= done:
            queue.write_manifest(
                replace(manifest, state="complete", updated_at=time.time())
            )
            session = _obs_runtime.session
            if session is not None:
                session.event(
                    "run_complete", manifest_run=manifest.run_id,
                    cells=len(manifest.keys),
                )
            _log.info(
                "run manifest complete",
                extra=kv(
                    manifest_run=manifest.run_id, cells=len(manifest.keys)
                ),
            )
    except OSError as exc:
        _log.warning(
            "failed to mark run manifest complete; workers will keep "
            "polling",
            extra=kv(error=str(exc)),
        )
