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
from dataclasses import dataclass, field
from pathlib import Path

from repro.dist.faults import FaultInjector, FaultPlan
from repro.dist.queue import WorkQueue
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

#: mid-run metrics snapshots are throttled to one per this many seconds
#: so sub-second cells don't pay one atomic JSON write each (the exit
#: snapshot always publishes)
METRICS_PUBLISH_INTERVAL_S = 0.5


def new_worker_id() -> str:
    """A short host-qualified id (``host-pid-rand``) for shard naming."""
    return (
        f"{socket.gethostname().split('.')[0]}-{os.getpid()}-"
        f"{uuid.uuid4().hex[:6]}"
    )


class CellTimeout(RuntimeError):
    """A cell exceeded its ``cell_timeout_s`` execution deadline."""


class Heartbeat(threading.Thread):
    """Background lease renewal for the cell currently executing."""

    def __init__(
        self,
        queue: WorkQueue,
        key: str,
        owner: str,
        interval: float,
        faults: FaultInjector,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name=f"heartbeat-{key[:8]}", daemon=True)
        self.queue = queue
        self.key = key
        self.owner = owner
        self.interval = interval
        self.faults = faults
        self.metrics = metrics
        self._halt = threading.Event()
        #: False once a renewal was refused (lease reaped + re-claimed);
        #: execution continues — the publish is idempotent — but the
        #: worker knows it became a straggler on this cell.
        self.owned = True

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if not self.faults.on_heartbeat():
                continue  # scripted heartbeat loss: skip the renewal
            try:
                renewed = self.queue.leases.renew(self.key, self.owner)
            except OSError as exc:
                # A store flake is not a refusal: the lease may well
                # still be ours. Keep beating — renewal succeeding on a
                # later tick is exactly how a degraded worker holds its
                # claim through a storage brown-out.
                if self.metrics is not None:
                    self.metrics.counter("lease.renew_errors").inc()
                _log.warning(
                    "lease renewal errored; will keep trying",
                    extra=kv(key=self.key, error=str(exc)),
                )
                continue
            if renewed:
                if self.metrics is not None:
                    self.metrics.counter("lease.renews").inc()
            else:
                if self.owned:
                    _log.warning(
                        "lease renewal refused; continuing as straggler",
                        extra=kv(key=self.key, worker_id=self.owner),
                    )
                if self.metrics is not None:
                    self.metrics.counter("lease.renew_refused").inc()
                self.owned = False

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
    """One claim/execute/publish loop over a shared work queue.

    Parameters
    ----------
    queue:
        The :class:`WorkQueue` (or its directory path).
    worker_id:
        Shard / lease owner id; defaults to a fresh host-qualified id.
    poll_interval:
        Sleep between scans when nothing was claimable.
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
    faults:
        Scripted :class:`FaultPlan` for the integration tests / CI.
    execute:
        Override for :func:`~repro.exp.tasks.execute_task` (same
        signature). The dispatch-overhead bench serves pre-computed
        results through this to time the coordination term alone.
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
        faults: FaultPlan | FaultInjector | None = None,
        execute=None,
        spool_dir: str | os.PathLike | None = None,
    ) -> None:
        self.queue = WorkQueue.attach(queue, lease_ttl)
        self.worker_id = worker_id or new_worker_id()
        self.poll_interval = poll_interval
        self.max_cells = max_cells
        self.wait_for_work = wait_for_work
        self.cell_timeout_s = cell_timeout_s
        self.faults = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        self.execute = execute if execute is not None else execute_task
        self.report = WorkerReport(worker_id=self.worker_id)
        #: always-on private registry, published to the queue's
        #: ``metrics/`` dir so throughput/ETA work without --telemetry
        self.metrics = MetricsRegistry()
        #: the worker's storage seam: retry jitter seeded by worker id,
        #: scripted io_faults routed from the fault plan, retries and
        #: degradations counted into the worker's own metrics
        self.store = Store(
            retry=RetryPolicy(seed=self.worker_id),
            faults=self.faults,
            metrics=self.metrics,
        )
        self.queue.use_store(self.store)
        self.spool_dir = Path(
            spool_dir
            if spool_dir is not None
            else Path(tempfile.gettempdir()) / f"repro-spool-{self.worker_id}"
        )
        self._spooled: list = []  # TaskResults awaiting a store recovery
        self._store_strikes = 0
        self._started_at = time.time()
        self._metrics_published_at = 0.0

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
        self._best_effort(
            lambda: self.queue.register_worker(self.worker_id, cells_done=0),
            "worker registration",
        )
        with bind(worker_id=self.worker_id):
            _log.info(
                "worker started",
                extra=kv(
                    queue=str(self.queue.root),
                    wait=self.wait_for_work,
                    cell_timeout_s=self.cell_timeout_s,
                ),
            )
            while True:
                try:
                    if self._spooled:
                        self._try_flush_spool()
                    progress = self._scan_once(meta)
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
                if self.max_cells is not None and (
                    len(self.report.executed) >= self.max_cells
                ):
                    self.report.exit_reason = "max_cells"
                    break
                if not progress:
                    if self._drained():
                        if not self.wait_for_work:
                            self.report.exit_reason = "drained"
                            break
                        if self._run_complete():
                            # The coordinator marked the run manifest
                            # complete: every promised cell is done, no
                            # later generation is coming. An elastic
                            # --wait worker exits with a distinct
                            # status instead of polling forever.
                            self.report.exit_reason = "run_complete"
                            _log.info(
                                "run manifest complete; elastic worker "
                                "exiting",
                                extra=kv(queue=str(self.queue.root)),
                            )
                            break
                    time.sleep(self.poll_interval)
            if self._spooled:
                # Last chance before exit: the queue may have drained
                # around our spooled cells (idempotent re-issue), but a
                # spooled result that never lands loses nothing *only*
                # if someone else published the cell — flush or fail
                # loudly.
                try:
                    self._try_flush_spool()
                except StoreUnavailable:
                    pass
                undelivered = [
                    r for r in self._spooled
                    if not self.queue.is_done(r.key)
                ]
                if undelivered:
                    raise self._degraded_exit_error(None)
                self._spooled.clear()
            self._best_effort(
                lambda: self.queue.register_worker(
                    self.worker_id,
                    cells_done=self.report.cells_done,
                    exited=True,
                ),
                "exit registration",
            )
            self._best_effort(
                lambda: self._publish_metrics(exited=True), "metrics publish"
            )
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
        return self.report

    def _best_effort(self, fn, what: str) -> None:
        """Run a non-critical store write; log-and-continue on failure."""
        try:
            fn()
        except OSError as exc:
            _log.warning(
                f"{what} failed; continuing",
                extra=kv(worker_id=self.worker_id, error=str(exc)),
            )

    def _publish_metrics(self, exited: bool = False) -> None:
        now = time.time()
        if not exited and (
            now - self._metrics_published_at < METRICS_PUBLISH_INTERVAL_S
        ):
            return
        self._metrics_published_at = now
        self.queue.write_worker_metrics(
            self.worker_id,
            self.metrics.snapshot(
                worker_id=self.worker_id,
                started_at=self._started_at,
                cells_done=self.report.cells_done,
                exited=exited,
            ),
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

    def _scan_once(self, meta: dict) -> bool:
        """One pass over the frontier; True when a cell executed."""
        for key in self.queue.frontier().claimable:
            lease = self.queue.leases.read(key)
            if lease is not None:
                if not lease.expired():
                    continue
                if not self.queue.leases.reap(key):
                    continue  # lost the reap race or the owner renewed
                self.report.reaped.append(key)
                self.metrics.counter("lease.reaps").inc()
                _log.warning(
                    "reaped expired lease",
                    extra=kv(key=key, prev_owner=lease.owner),
                )
            if not self.queue.leases.try_claim(key, self.worker_id):
                continue
            if self.queue.is_done(key):
                # Finished between the frontier snapshot and our claim
                # (a straggler's publish, or another worker's whole cell).
                self.queue.leases.release(key, self.worker_id)
                self.metrics.counter("queue.straggler_dedupes").inc()
                _log.info(
                    "claim raced a straggler's publish; released",
                    extra=kv(key=key),
                )
                continue
            self.metrics.counter("lease.claims").inc()
            _log.info("claimed cell", extra=kv(key=key))
            self.faults.on_claim(key)
            self._execute_cell(key, meta)
            return True
        return False

    # -- execution --------------------------------------------------------

    def _execute_with_deadline(self, key: str, meta: dict):
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
            return self.execute(
                self.queue.load_task(key),
                meta.get("trace_dir"),
                bool(meta.get("trace_compact", False)),
            )

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

    def _execute_cell(self, key: str, meta: dict) -> None:
        # Renew at a quarter of the ttl so a healthy worker never comes
        # close to expiry.
        heartbeat = Heartbeat(
            self.queue, key, self.worker_id, self.queue.leases.ttl / 4.0,
            self.faults, metrics=self.metrics,
        )
        heartbeat.start()
        t0 = time.perf_counter()
        try:
            result = self._execute_with_deadline(key, meta)
        except StoreUnavailable:
            # The *store* failed (spec unreadable), not the cell: this
            # is a scan-level storage problem — release and let the
            # run-loop strike budget decide, without burning one of the
            # cell's MAX_ATTEMPTS on a storage brown-out.
            heartbeat.stop()
            self._best_effort(
                lambda: self.queue.leases.release(key, self.worker_id),
                "lease release",
            )
            raise
        except CellTimeout as exc:
            heartbeat.stop()
            self.report.timed_out.append(key)
            self.report.failed.append(key)
            self.metrics.counter("queue.cell_timeouts").inc()
            attempts = 0

            def record() -> None:
                nonlocal attempts
                attempts = self.queue.record_failure(
                    key, self.worker_id, str(exc)
                )

            self._best_effort(record, "timeout failure record")
            _log.error(
                "cell exceeded its deadline; abandoned",
                extra=kv(
                    key=key, timeout_s=self.cell_timeout_s, attempts=attempts
                ),
            )
            self._best_effort(
                lambda: self.queue.leases.release(key, self.worker_id),
                "lease release",
            )
            self._best_effort(lambda: self._publish_metrics(), "metrics publish")
            return
        except Exception:
            # Record-and-continue is deliberate (the lease protocol
            # re-issues the cell elsewhere; MAX_ATTEMPTS poisons a
            # deterministic failure) — but never silently.
            heartbeat.stop()
            self.report.failed.append(key)
            self.metrics.counter("queue.failures").inc()
            attempts = self.queue.record_failure(
                key, self.worker_id, traceback.format_exc(limit=20)
            )
            _log.exception(
                "cell execution failed",
                extra=kv(key=key, attempts=attempts),
            )
            self.queue.leases.release(key, self.worker_id)
            self._publish_metrics()
            return
        heartbeat.stop()
        if not heartbeat.owned:
            self.report.straggled.append(key)
            self.metrics.counter("queue.straggles").inc()
            _log.warning(
                "publishing as straggler (lease was reaped mid-execution)",
                extra=kv(key=key),
            )
        result.worker_id = self.worker_id
        self.faults.on_publish(key)
        try:
            self.queue.publish(self.worker_id, result)
        except StoreUnavailable as exc:
            self._spool_result(key, result, exc)
        else:
            if self._spooled:
                try:
                    self._try_flush_spool()
                except StoreUnavailable:
                    pass
        self._best_effort(
            lambda: self.queue.leases.release(key, self.worker_id),
            "lease release",
        )
        self.report.executed.append(key)
        self.metrics.counter("queue.cells_executed").inc()
        self.metrics.histogram("queue.cell_wall_s").observe(
            time.perf_counter() - t0
        )
        self._best_effort(
            lambda: self.queue.register_worker(
                self.worker_id, cells_done=self.report.cells_done
            ),
            "worker registration",
        )
        self._best_effort(lambda: self._publish_metrics(), "metrics publish")
        _log.info(
            "published cell",
            extra=kv(key=key, wall_s=round(result.wall_time, 3)),
        )

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
        """Re-publish spooled results oldest-first; stop on first refusal
        (StoreUnavailable propagates to the caller's strike handling)."""
        while self._spooled:
            result = self._spooled[0]
            if not self.queue.is_done(result.key):
                self.queue.publish(self.worker_id, result)
            self._spooled.pop(0)
            self.metrics.counter("store.spool_flushed").inc()
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
