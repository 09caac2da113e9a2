"""The elastic queue worker: claim → execute → publish, forever.

A :class:`QueueWorker` is completely stateless with respect to the grid:
everything it needs — task specs, leases, completion markers, the shared
execution context — lives in the queue directory, so workers can be
started or SIGKILLed at any moment mid-grid (``repro work --queue DIR``)
and the sweep converges regardless. Crash recovery is the lease
protocol's job: a worker that dies holding a lease simply stops
heartbeating, the lease expires, and any scanning worker reaps and
re-claims the cell. Results of re-issued cells are bit-identical to the
lost original (per-cell ``SeedSequence`` seeds), so publishes are
idempotent by construction.

The hot path does not wait on itself: a pass walks *one* frontier
listing (from a per-worker offset, claiming one cell at a time), and
finished results are **group-committed** — up to ``COMMIT_CELLS`` of
them, or ``COMMIT_AGE_S`` worth, share one journal fsync, their leases
renewed by the worker's single :class:`Heartbeat` until the done
markers are down. What lands in the queue directory is unchanged, only
when; a crash before a commit loses work the lease protocol re-issues.
A cell creates no file: its lease and its done marker are hard links
to the worker's lease token.

Storage robustness (this layer's contribution on shared mounts):

* every queue/lease operation goes through the worker's own
  :class:`~repro.dist.store.Store`, whose retry jitter is seeded by the
  worker id — reproducible per worker, never synchronized across
  workers, never touching experiment RNG;
* a cell that exceeds ``cell_timeout_s`` is abandoned by a watchdog,
  recorded as a failed attempt (counting toward ``MAX_ATTEMPTS``) and
  its lease released, so a hung simulation cannot hold a cell hostage
  behind a live heartbeat;
* when the shared store refuses writes (:class:`StoreUnavailable`),
  the worker **degrades instead of dying**: finished results spool to a
  local directory, heartbeats keep trying, and the spool flushes the
  moment the store recovers. Only a store that stays down through the
  strike budget exits the worker — with an error that says exactly
  where the spooled results live.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
import traceback
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.dist.queue import MAX_ATTEMPTS, WorkQueue
from repro.dist.store import RetryPolicy, Store, StoreUnavailable
from repro.exp.tasks import execute_task
from repro.obs.events import bind
from repro.obs.logbridge import get_logger, kv
from repro.obs.metrics import MetricsRegistry
from repro.utils.durable import append_line

__all__ = [
    "QueueWorker",
    "WorkerReport",
    "Heartbeat",
    "CellTimeout",
    "new_worker_id",
]

_log = get_logger("repro.dist.worker")

#: mid-run registration + metrics snapshots are throttled to one per
#: this many seconds so sub-second cells don't pay two atomic JSON
#: writes each (the exit snapshot always publishes)
METRICS_PUBLISH_INTERVAL_S = 0.5
#: group commit: finished results wait — leases held and renewed — for
#: one shared fsync until this many are pending …
COMMIT_CELLS = 8
#: … or the oldest of them was claimed this long ago, so a cell slower
#: than this publishes alone and a crash loses at most this much (or
#: ``COMMIT_CELLS`` cells) of finished work
COMMIT_AGE_S = 0.25
#: first sleep of a worker that found nothing claimable; doubles up to
#: ``poll_interval`` while the queue stays idle
IDLE_BACKOFF_S = 0.01


def new_worker_id() -> str:
    """A short host-qualified id (``host-pid-rand``) for shard naming."""
    return (
        f"{socket.gethostname().split('.')[0]}-{os.getpid()}-"
        f"{uuid.uuid4().hex[:6]}"
    )


class CellTimeout(RuntimeError):
    """A cell exceeded its ``cell_timeout_s`` execution deadline."""


class Heartbeat(threading.Thread):
    """Background lease renewal for every cell its owner currently holds.

    One thread per owner: the worker calls :meth:`hold` when it wins a
    claim and :meth:`drop` just before the release, so cells whose
    results are still waiting for their group commit stay leased. Each
    tick touches the owner's token once, which renews every held lease,
    and checks each held lease is still a link to it. The coordinator
    runs one over its single leader lease.
    """

    def __init__(
        self,
        queue: WorkQueue,
        key: str | None,
        owner: str,
        interval: float,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name=f"heartbeat-{owner[:16]}", daemon=True)
        self.queue = queue
        self.owner = owner
        self.interval = interval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._halt = threading.Event()
        self._held: set[str] = set() if key is None else {key}
        #: serialises a tick against :meth:`drop`, so a key is never
        #: judged lost after its owner released it
        self._lock = threading.Lock()
        #: held keys whose lease was lost (reaped, perhaps re-claimed);
        #: execution continues — the publish is idempotent — but the
        #: owner knows it became a straggler on those cells.
        self.lost: set[str] = set()

    @property
    def owned(self) -> bool:
        """False once any held lease was lost to a refusal."""
        return not self.lost

    def hold(self, key: str) -> None:
        """Start renewing ``key`` (its claim was just won)."""
        self._held.add(key)

    def drop(self, key: str) -> bool:
        """Stop renewing ``key``; False when its lease had been lost.

        Returns only once no tick is in flight, so a tick cannot judge
        the lease after the caller released it.
        """
        with self._lock:
            self._held.discard(key)
            owned = key not in self.lost
            self.lost.discard(key)
        return owned

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if self._held:
                self._tick()

    def _tick(self) -> None:
        with self._lock:
            held = set(self._held)
            try:
                lost = self.queue.leases.renew(self.owner, held)
            except OSError as exc:
                # A store flake is not a refusal: the leases may well
                # still be ours. Keep beating — renewal succeeding on a
                # later tick is exactly how a degraded worker holds its
                # claims through a storage brown-out.
                self.metrics.counter("lease.renew_errors").inc()
                _log.warning(
                    "lease renewal errored; will keep trying",
                    extra=kv(held=len(held), error=str(exc)),
                )
                return
            if len(lost) < len(held):
                self.metrics.counter("lease.renews").inc(len(held) - len(lost))
            if lost:
                for key in sorted(lost - self.lost):
                    _log.warning(
                        "lease renewal refused; continuing as straggler",
                        extra=kv(key=key, worker_id=self.owner),
                    )
                self.metrics.counter("lease.renew_refused").inc(len(lost))
                self.lost |= lost

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


@dataclass
class WorkerReport:
    """What one worker loop did before exiting."""

    worker_id: str
    executed: list[str] = field(default_factory=list)
    reaped: list[str] = field(default_factory=list)
    straggled: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    timed_out: list[str] = field(default_factory=list)
    spooled: list[str] = field(default_factory=list)
    #: why the loop ended: ``drained`` | ``max_cells`` | ``run_complete``
    #: (a ``--wait`` worker that saw the run manifest flip to complete)
    exit_reason: str = ""

    @property
    def cells_done(self) -> int:
        return len(self.executed)


class QueueWorker:
    """One claim/execute/commit loop over a shared work queue.

    Parameters
    ----------
    queue:
        The :class:`WorkQueue` (or its directory path).
    worker_id:
        Shard / lease owner id; defaults to a fresh host-qualified id.
    poll_interval:
        Longest sleep between scans while nothing is claimable (the
        idle back-off starts at ``IDLE_BACKOFF_S`` and doubles up to it).
    max_cells:
        Stop after executing this many cells (None = unbounded).
    wait_for_work:
        Keep polling after the queue drains (elastic long-lived worker)
        instead of exiting. ``repro work --wait``.
    cell_timeout_s:
        Per-cell execution deadline; a cell still running after this
        many seconds is abandoned, recorded as a failed attempt and its
        lease released. None (default) defers to the queue meta's
        ``cell_timeout_s`` (set by ``execution.cell_timeout_s`` in the
        scenario spec); 0 disables the watchdog outright.
    spool_dir:
        Where results spool when the shared store refuses writes
        (default: a per-worker directory under the system temp dir —
        deliberately *local* storage, since the shared mount is what
        just failed).
    """

    #: consecutive store-failed scan passes tolerated before the worker
    #: gives up on the store recovering and exits with an error
    MAX_STORE_STRIKES = 3

    def __init__(
        self,
        queue: WorkQueue | str | os.PathLike,
        worker_id: str | None = None,
        lease_ttl: float | None = None,
        poll_interval: float = 0.2,
        max_cells: int | None = None,
        wait_for_work: bool = False,
        cell_timeout_s: float | None = None,
        spool_dir: str | os.PathLike | None = None,
    ) -> None:
        self.queue = WorkQueue.attach(queue, lease_ttl)
        self.worker_id = worker_id or new_worker_id()
        self.poll_interval = poll_interval
        self.max_cells = max_cells
        self.wait_for_work = wait_for_work
        self.cell_timeout_s = cell_timeout_s
        #: runs one cell: ``execute(task)``
        self.execute = execute_task
        self.report = WorkerReport(worker_id=self.worker_id)
        #: always-on private registry, published to the queue's
        #: ``metrics/`` dir so throughput/ETA work without --telemetry
        self.metrics = MetricsRegistry()
        #: the worker's storage seam: retry jitter seeded by worker id,
        #: retries and degradations counted into the worker's own metrics
        self.store = Store(
            retry=RetryPolicy(seed=self.worker_id), metrics=self.metrics,
        )
        self.queue.use_store(self.store)
        self.spool_dir = Path(
            spool_dir
            if spool_dir is not None
            else Path(tempfile.gettempdir()) / f"repro-spool-{self.worker_id}"
        )
        self._spooled: list = []  # TaskResults awaiting a store recovery
        self._pending: list = []  # TaskResults awaiting their group commit
        self._pending_since = 0.0  # when the oldest pending cell was claimed
        self._store_strikes = 0
        self._started_at = time.time()
        self._progress_published_at = 0.0
        # Renew at a quarter of the ttl so a healthy worker never comes
        # close to expiry.
        self._heartbeat = Heartbeat(
            self.queue, None, self.worker_id, self.queue.leases.ttl / 4.0,
            metrics=self.metrics,
        )

    # -- the loop ---------------------------------------------------------

    def run(self) -> WorkerReport:
        """Work until the queue drains (or ``wait_for_work`` forever)."""
        meta = self.queue.read_meta()
        telemetry = meta.get("telemetry")
        if telemetry:
            # The enqueuer asked for telemetry: late-joining workers
            # follow the shared directory (no-op if already enabled).
            import repro.obs as obs

            obs.enable(telemetry)
        if self.cell_timeout_s is None and meta.get("cell_timeout_s"):
            self.cell_timeout_s = float(meta["cell_timeout_s"])
        self._started_at = time.time()
        self._publish_progress()
        self._heartbeat.start()
        try:
            with bind(worker_id=self.worker_id):
                self._work()
        finally:
            self._heartbeat.stop()
            self._best_effort(
                lambda: self.queue.leases.retire(self.worker_id),
                "lease token retire",
            )
        return self.report

    def _work(self) -> None:
        _log.info(
            "worker started",
            extra=kv(
                queue=str(self.queue.root),
                wait=self.wait_for_work,
                cell_timeout_s=self.cell_timeout_s,
            ),
        )
        idle_s = IDLE_BACKOFF_S
        while True:
            try:
                if self._spooled:
                    self._try_flush_spool()
                progress = self._scan_once()
            except StoreUnavailable as exc:
                self._store_strikes += 1
                self.metrics.counter("store.scan_failures").inc()
                if self._store_strikes >= self.MAX_STORE_STRIKES:
                    raise self._degraded_exit_error(exc) from exc
                _log.warning(
                    "store unavailable during scan; backing off",
                    extra=kv(
                        strikes=self._store_strikes,
                        budget=self.MAX_STORE_STRIKES,
                        error=str(exc),
                    ),
                )
                time.sleep(self.poll_interval)
                continue
            self._store_strikes = 0
            if self._budget_spent():
                self.report.exit_reason = "max_cells"
                break
            if progress:
                idle_s = IDLE_BACKOFF_S
                continue
            if self._drained():
                if not self.wait_for_work:
                    self.report.exit_reason = "drained"
                    break
                if self._run_complete():
                    # The coordinator marked the run manifest complete:
                    # every promised cell is done, no later generation
                    # is coming. An elastic --wait worker exits with a
                    # distinct status instead of polling forever.
                    self.report.exit_reason = "run_complete"
                    _log.info(
                        "run manifest complete; elastic worker exiting",
                        extra=kv(queue=str(self.queue.root)),
                    )
                    break
            # Nothing claimable, but a peer still holds cells: it is
            # usually milliseconds from done, so back off 10 ms → 20 →
            # … → poll_interval instead of sleeping the full interval.
            time.sleep(min(idle_s, self.poll_interval))
            idle_s *= 2.0
        if self._spooled:
            # Last chance before exit: the queue may have drained
            # around our spooled cells (idempotent re-issue), but a
            # spooled result that never lands loses nothing *only* if
            # someone else published the cell — flush or fail loudly.
            try:
                self._try_flush_spool()
            except StoreUnavailable:
                pass
            if any(not self.queue.is_done(r.key) for r in self._spooled):
                raise self._degraded_exit_error(None)
            self._spooled.clear()
        self._publish_progress(exited=True)
        _log.info(
            "worker exiting",
            extra=kv(
                executed=len(self.report.executed),
                reaped=len(self.report.reaped),
                straggled=len(self.report.straggled),
                failed=len(self.report.failed),
                timed_out=len(self.report.timed_out),
                exit_reason=self.report.exit_reason,
            ),
        )

    def _best_effort(self, fn, what: str) -> None:
        """Run a non-critical store write; log-and-continue on failure."""
        try:
            fn()
        except OSError as exc:
            _log.warning(
                f"{what} failed; continuing",
                extra=kv(worker_id=self.worker_id, error=str(exc)),
            )

    def _publish_progress(self, exited: bool = False) -> None:
        """Refresh ``workers/<id>.json`` and ``metrics/<id>.json`` — at
        start, at exit, and at most once per
        ``METRICS_PUBLISH_INTERVAL_S`` in between."""
        now = time.time()
        if not exited and (
            now - self._progress_published_at < METRICS_PUBLISH_INTERVAL_S
        ):
            return
        self._progress_published_at = now
        cells_done = self.report.cells_done

        def publish() -> None:
            self.queue.register_worker(
                self.worker_id, cells_done=cells_done,
                **({"exited": True} if exited else {}),
            )
            self.queue.write_worker_metrics(
                self.worker_id,
                self.metrics.snapshot(
                    worker_id=self.worker_id, started_at=self._started_at,
                    cells_done=cells_done, exited=exited,
                ),
            )

        self._best_effort(publish, "registration / metrics publish")

    def _budget_spent(self) -> bool:
        """Whether ``max_cells`` cells have executed (published or not)."""
        return self.max_cells is not None and (
            self.report.cells_done + len(self._pending) >= self.max_cells
        )

    def _drained(self) -> bool:
        """No cell left that this worker could ever make progress on.

        A live lease held by *someone else* does not count as drained —
        that owner may yet die, so the worker keeps polling until the
        cell is done (or poisoned by repeated failures).
        """
        return not self.queue.frontier().claimable

    def _run_complete(self) -> bool:
        """Whether the run manifest says every promised cell is done.

        Conservative on any doubt (missing, corrupt, unreadable → not
        complete): the wrong answer here merely keeps an elastic worker
        polling, never strands work.
        """
        from repro.dist.manifest import ManifestCorrupt

        try:
            manifest = self.queue.read_manifest()
        except (ManifestCorrupt, OSError, json.JSONDecodeError):
            return False
        return manifest is not None and manifest.complete

    def _scan_once(self) -> bool:
        """One pass over one frontier snapshot; True when a cell executed.

        The walk starts at a per-worker offset and wraps, so concurrent
        workers spread over the grid instead of racing for the same
        keys. Claims are lazy — one cell at a time, never ahead of
        execution — and whatever is still pending when the pass ends,
        for any reason, is committed before it returns.
        """
        keys = self.queue.frontier().claimable
        offset = zlib.crc32(self.worker_id.encode()) % max(1, len(keys))
        progress = False
        try:
            for key in keys[offset:] + keys[:offset]:
                if self._budget_spent():
                    break
                # The snapshot ages as the pass goes on; a stat spares
                # the claim/release round trip on cells a peer finished.
                if self.queue.is_done(key) or not self._claim(key):
                    continue
                strikes = self.queue.failure_count(key)
                if strikes >= MAX_ATTEMPTS:  # poisoned since the snapshot
                    self._release(key)
                    continue
                progress = True
                self._execute_cell(key, alone=strikes > 0)
        finally:
            self._commit()
        return progress

    def _claim(self, key: str) -> bool:
        """Win ``key``'s lease — reaping an expired one in the way — and
        re-check it is still owed; True when the cell is ours to run."""
        leases = self.queue.leases
        if not leases.try_claim(key, self.worker_id):
            lease = leases.read(key)
            if lease is not None:
                if not lease.expired() or not leases.reap(key):
                    return False  # live owner, lost reap race, or renewed
                self.report.reaped.append(key)
                self.metrics.counter("lease.reaps").inc()
                _log.warning(
                    "reaped expired lease",
                    extra=kv(key=key, prev_owner=lease.owner),
                )
            if not leases.try_claim(key, self.worker_id):
                return False
        if self.queue.is_done(key):
            # Finished between our stat and our claim (a straggler's
            # publish, or another worker's whole cell).
            leases.release(key, self.worker_id)
            self.metrics.counter("queue.straggler_dedupes").inc()
            _log.info(
                "claim raced a straggler's publish; released",
                extra=kv(key=key),
            )
            return False
        self._heartbeat.hold(key)
        self.metrics.counter("lease.claims").inc()
        _log.info("claimed cell", extra=kv(key=key))
        return True

    def _release(self, key: str) -> bool:
        """Stop renewing ``key`` and drop its lease; False when the lease
        was lost mid-execution. Best-effort: an orphan is this worker's
        to re-take on its next claim of the cell, and ages out once the
        worker exits."""
        owned = self._heartbeat.drop(key)
        self._best_effort(
            lambda: self.queue.leases.release(key, self.worker_id),
            "lease release",
        )
        return owned

    # -- execution --------------------------------------------------------

    def _execute_with_deadline(self, key: str):
        """Run the cell, bounded by the ``cell_timeout_s`` watchdog.

        Without a timeout the call runs inline (zero overhead). With
        one, execution moves to a daemon thread that is *abandoned* on
        deadline — its eventual result is discarded (only this method's
        return value ever reaches ``publish``), and the process exiting
        reaps the thread. Python offers no safe preemption of arbitrary
        user code; abandonment plus lease release is the portable way
        to stop a hung cell from blocking the grid.
        """

        def call():
            return self.execute(self.queue.load_task(key))

        timeout = self.cell_timeout_s
        if not timeout:
            return call()
        box: dict = {}

        def target() -> None:
            try:
                box["result"] = call()
            except BaseException as exc:  # travels to the caller below
                box["error"] = exc

        thread = threading.Thread(
            target=target, name=f"cell-{key[:8]}", daemon=True
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            raise CellTimeout(
                f"cell {key} still executing after cell_timeout_s={timeout}; "
                f"abandoning the attempt"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _execute_cell(self, key: str, alone: bool) -> None:
        """Run one claimed cell and queue its result for the next commit.

        ``alone``: the cell has a failure on record. A supervised crash
        strikes *every* lease the dead worker held, so such a cell is
        never batched — pending results are committed before it runs
        and its own right after. An innocent batch-mate thereby takes
        at most one collateral strike, and a worker-killing cell still
        reaches ``MAX_ATTEMPTS`` on its own.
        """
        if alone:
            self._commit()
        t0 = time.perf_counter()
        if not self._pending:
            self._pending_since = t0
        try:
            result = self._execute_with_deadline(key)
        except StoreUnavailable:
            # The *store* failed (spec unreadable), not the cell: this
            # is a scan-level storage problem — release and let the
            # run-loop strike budget decide, without burning one of the
            # cell's MAX_ATTEMPTS on a storage brown-out.
            self._release(key)
            raise
        except Exception as exc:
            # Record-and-continue is deliberate (the lease protocol
            # re-issues the cell elsewhere; MAX_ATTEMPTS poisons a
            # deterministic failure) — but never silently.
            timed_out = isinstance(exc, CellTimeout)
            self.report.failed.append(key)
            if timed_out:
                self.report.timed_out.append(key)
            self.metrics.counter(
                "queue.cell_timeouts" if timed_out else "queue.failures"
            ).inc()
            error = str(exc) if timed_out else traceback.format_exc(limit=20)
            attempts = 0

            def record() -> None:
                nonlocal attempts
                attempts = self.queue.record_failure(
                    key, self.worker_id, error
                )

            self._best_effort(record, "failure record")
            _log.error(
                "cell exceeded its deadline; abandoned" if timed_out
                else "cell execution failed",
                exc_info=not timed_out,
                extra=kv(key=key, attempts=attempts),
            )
            self._release(key)
            self._publish_progress()
            return
        self.metrics.histogram("queue.cell_wall_s").observe(
            time.perf_counter() - t0
        )
        result.worker_id = self.worker_id
        self._pending.append(result)
        if (
            alone
            or len(self._pending) >= COMMIT_CELLS
            or time.perf_counter() - self._pending_since >= COMMIT_AGE_S
        ):
            self._commit()

    def _commit(self) -> None:
        """Publish every pending result under one fsync: k sealed lines,
        then k done-marker links, then k lease releases."""
        batch, self._pending = self._pending, []
        if not batch:
            return
        try:
            self.queue.publish(self.worker_id, *batch)
        except StoreUnavailable as exc:
            for result in batch:
                self._spool_result(result.key, result, exc)
        else:
            if self._spooled:
                try:
                    self._try_flush_spool()
                except StoreUnavailable:
                    pass
        for result in batch:
            if not self._release(result.key):
                self.report.straggled.append(result.key)
                self.metrics.counter("queue.straggles").inc()
                _log.warning(
                    "published as straggler (lease was reaped mid-execution)",
                    extra=kv(key=result.key),
                )
            self.report.executed.append(result.key)
            _log.info(
                "published cell",
                extra=kv(key=result.key, wall_s=round(result.wall_time, 3)),
            )
        self.metrics.counter("queue.cells_executed").inc(len(batch))
        self.metrics.histogram("queue.commit_cells").observe(len(batch))
        self._publish_progress()

    # -- degraded mode ----------------------------------------------------

    def _spool_result(self, key: str, result, exc: StoreUnavailable) -> None:
        """Park a finished result on *local* disk: the work is not lost,
        the store just cannot take it yet."""
        self._spooled.append(result)
        self.report.spooled.append(key)
        self.metrics.counter("store.degraded_entries").inc()
        try:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            append_line(
                self.spool_dir / "results.jsonl", result.to_sealed_line()
            )
        except OSError as spool_exc:
            _log.warning(
                "local spool write failed (result kept in memory)",
                extra=kv(key=key, error=str(spool_exc)),
            )
        _log.error(
            "store unavailable on publish; result spooled locally",
            extra=kv(
                key=key,
                spool=str(self.spool_dir),
                pending_flush=len(self._spooled),
                error=str(exc),
            ),
        )

    def _try_flush_spool(self) -> None:
        """Re-publish the spooled results still owed, as one commit; a
        refusal (StoreUnavailable) propagates to the caller's strike
        handling with the spool intact."""
        owed = [r for r in self._spooled if not self.queue.is_done(r.key)]
        if owed:
            self.queue.publish(self.worker_id, *owed)
        self.metrics.counter("store.spool_flushed").inc(len(self._spooled))
        self._spooled.clear()
        try:
            (self.spool_dir / "results.jsonl").unlink(missing_ok=True)
        except OSError:
            pass
        _log.info("store recovered; local spool flushed", extra=kv())

    def _degraded_exit_error(self, cause: OSError | None) -> RuntimeError:
        spooled = len(self._spooled)
        spool_note = (
            f" {spooled} finished result(s) are spooled at {self.spool_dir} "
            f"(sealed JSONL; re-run a worker against the queue once the "
            f"store recovers — re-execution is bit-identical, or append "
            f"the spool to a journal shard to salvage the compute)."
            if spooled
            else ""
        )
        return RuntimeError(
            f"shared store at {self.queue.root} stayed unavailable through "
            f"{self.MAX_STORE_STRIKES} consecutive scan attempts"
            f"{f' (last error: {cause})' if cause else ''}; worker "
            f"{self.worker_id} is giving up.{spool_note} Check the mount "
            f"(df -h; dmesg) and re-start workers with `repro work --queue "
            f"{self.queue.root}` — the queue state is resumable in place."
        )
