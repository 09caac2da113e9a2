"""The one launcher of local queue-worker processes: start, watch, stop.

A :class:`WorkerSupervisor` owns N worker *slots* and is the only code
under :mod:`repro.dist` that constructs a worker process. Each slot runs
one ``repro.dist.worker.QueueWorker`` subprocess; when the process dies
with a non-zero exit code (SIGKILL, OOM, unhandled exception) the slot
respawns it — under a fresh worker id, after an exponential backoff —
until the queue drains or the slot's **circuit breaker** opens.

The breaker exists because respawning is only safe when crashes are
*independent*: a worker that dies instantly every time it starts (bad
install, poisoned host, corrupt mount) would otherwise burn through the
whole grid's attempt budget. ``max_crashes`` consecutive crashes —
where "consecutive" resets once an incarnation survives
``HEALTHY_AFTER_S`` — opens the slot for good. ``max_crashes=1`` is
therefore plain *unsupervised* launching: the first crash opens the
breaker and nothing respawns.

Crashes feed the existing failure accounting: every lease the dead
worker still held gets a recorded failure attempt (it crashed *holding*
that cell) and is force-released for immediate re-issue, so a cell that
kills every worker that touches it poisons at ``MAX_ATTEMPTS`` like any
other deterministic failure, instead of crash-looping the fleet
forever. Lifecycle events (``supervisor_spawn`` / ``supervisor_crash``
/ ``supervisor_circuit_open``) route through ``repro.obs`` when a
telemetry session is active.

Stopping is graceful: :meth:`WorkerSupervisor.stop` lets every live
worker finish (its exit registration and final metrics snapshot
included) for up to ``STOP_GRACE_S`` before terminating what is left.

Supervision runs on the caller's thread, one :meth:`~WorkerSupervisor.step`
(handle exits, respawn what is due) between :meth:`~WorkerSupervisor.sleep`
calls, which wake the moment a worker exits. :meth:`~WorkerSupervisor.run`
is that loop on its own — ``repro work --queue DIR --supervise N``; the
coordinator (:func:`~repro.dist.coordinator.dispatch_tasks`) steps it
inside its own loop instead, respawning (``supervise=True``, scenario
``execution.supervise``) or not.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import socket
import time
import uuid
from dataclasses import dataclass, field

from repro.dist.queue import WorkQueue
from repro.dist.worker import QueueWorker
from repro.exp.tasks import init_worker, worker_context
from repro.obs import runtime as _obs_runtime
from repro.obs.logbridge import get_logger, kv

__all__ = ["WorkerSupervisor", "SupervisorReport", "DEFAULT_MAX_CRASHES"]

_log = get_logger("repro.dist.supervise")

#: consecutive crashes that open a slot's breaker unless the caller
#: says otherwise (``repro work --max-crashes``; 1 = never respawn)
DEFAULT_MAX_CRASHES = 5
#: longest gap between supervision passes — and between the
#: coordinator's passes over the queue (a worker's exit starts one at once)
POLL_INTERVAL_S = 0.2
#: an incarnation surviving this long resets its slot's consecutive-
#: crash counter (the crash streak was broken)
HEALTHY_AFTER_S = 5.0
#: how long :meth:`WorkerSupervisor.stop` lets live workers finish
#: before terminating them
STOP_GRACE_S = 30.0


def _worker_process_entry(
    queue: WorkQueue | str,
    worker_id: str,
    lease_ttl: float,
    modules: tuple[str, ...],
    options: dict,
) -> None:
    """Subprocess target for a launched worker: the shared worker
    start-up (:func:`~repro.exp.tasks.init_worker`), then one
    :class:`QueueWorker` with the remaining keyword ``options``."""
    init_worker(modules)
    QueueWorker(
        queue, worker_id=worker_id, lease_ttl=lease_ttl, **options
    ).run()


@dataclass
class SupervisorReport:
    """What one supervision session did before exiting."""

    slots: int
    spawned: int = 0
    crashes: int = 0
    #: failure attempts recorded against cells dead workers still held
    strikes: int = 0
    #: slot indices whose circuit breaker opened (crash loop)
    circuit_open: list[int] = field(default_factory=list)
    #: ``drained`` | ``circuit_open`` | ``stopped``
    exit_reason: str = ""


class _Slot:
    """One supervised worker position: its live process + crash state."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.worker_id: str | None = None
        self.generation = 0  # incarnations spawned so far
        self.consecutive = 0  # crashes without a healthy run between
        self.started_at = 0.0
        self.next_spawn_at = 0.0
        self.open = False  # circuit breaker
        self.retired = False  # clean worker exit: queue drained


class WorkerSupervisor:
    """Respawn-with-backoff supervision over N queue-worker slots.

    Parameters
    ----------
    queue:
        The :class:`WorkQueue` (or its directory path).
    n_workers:
        Number of worker slots.
    backoff_base_s / backoff_max_s:
        Respawn delay after the n-th consecutive crash:
        ``min(backoff_max_s, backoff_base_s * 2**(n-1))``.
    max_crashes:
        Consecutive crashes that open a slot's circuit breaker; ``1``
        never respawns.
    wait_for_work:
        Spawn elastic workers (``--wait`` semantics: they exit on a
        complete run manifest instead of a drained scan).

    Worker ids are ``sup<slot>g<incarnation>-<host>-<pid>-<rand>``, so
    a journal shard or lease names the slot and incarnation it came from.
    """

    def __init__(
        self,
        queue: WorkQueue | str | os.PathLike,
        n_workers: int,
        *,
        lease_ttl: float | None = None,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 30.0,
        max_crashes: int = DEFAULT_MAX_CRASHES,
        wait_for_work: bool = False,
        cell_timeout_s: float | None = None,
        worker_poll_interval: float = 0.2,
        mp_start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(
                f"supervisor needs at least one worker slot, got {n_workers!r}"
            )
        self.queue = WorkQueue.attach(queue, lease_ttl)
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.max_crashes = max_crashes
        self.wait_for_work = wait_for_work
        self.cell_timeout_s = cell_timeout_s
        self.worker_poll_interval = worker_poll_interval
        self._context = worker_context(mp_start_method)
        self._slots = [_Slot(i) for i in range(n_workers)]
        self.report = SupervisorReport(slots=n_workers)

    # -- the loop ----------------------------------------------------------

    def run(self) -> SupervisorReport:
        """Supervise until the queue drains or every breaker opens."""
        while not self.step():
            self.sleep()
        return self.report

    def step(self) -> bool:
        """One pass over the slots: handle every worker exit (striking
        the leases a crashed one held) and respawn what is due. True
        once supervision is over: every breaker open, or nothing
        running and nothing left to respawn for."""
        if self.report.exit_reason:
            return True
        now = time.time()
        for slot in self._slots:
            self._tick_slot(slot, now)
        if all(s.open for s in self._slots):
            self._finish("circuit_open")
        elif not any(s.proc is not None for s in self._slots) and (
            all(s.open or s.retired for s in self._slots)
            or self._no_work_left()
        ):
            self._finish("drained")  # some slot retired, or no work left
        return bool(self.report.exit_reason)

    def sleep(self) -> None:
        """Until a running worker exits, at most ``POLL_INTERVAL_S``.

        Every process still on a slot was running at the last pass, so
        its sentinel turning ready *is* the next thing to handle.
        """
        sentinels = [
            slot.proc.sentinel for slot in self._slots if slot.proc is not None
        ]
        if sentinels:
            multiprocessing.connection.wait(sentinels, POLL_INTERVAL_S)
        else:
            time.sleep(POLL_INTERVAL_S)

    def stop(self) -> None:
        """End supervision, let live workers finish, terminate the rest.

        A worker that sees the queue drained is at this moment writing
        its exit registration and final metrics snapshot; it gets until
        ``STOP_GRACE_S`` (shared across slots) to finish on its own, so
        a clean run never leaves a ``worker-stale`` record behind.
        """
        if not self.report.exit_reason:
            self._finish("stopped")
        deadline = time.monotonic() + STOP_GRACE_S
        for slot in self._slots:
            proc = slot.proc
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    def _finish(self, exit_reason: str) -> None:
        self.report.exit_reason = exit_reason
        self.report.circuit_open = [s.index for s in self._slots if s.open]
        _log.info(
            "supervisor exiting",
            extra=kv(
                spawned=self.report.spawned,
                crashes=self.report.crashes,
                strikes=self.report.strikes,
                circuit_open=self.report.circuit_open,
                exit_reason=exit_reason,
            ),
        )

    def _tick_slot(self, slot: _Slot, now: float) -> None:
        if slot.open or slot.retired:
            return
        proc = slot.proc
        if proc is not None:
            if proc.exitcode is None:
                return  # running fine
            self._on_exit(slot, proc.exitcode, now)
            if slot.open or slot.retired:
                return
        if now < slot.next_spawn_at:
            return  # backing off
        if self._no_work_left():
            # Don't spawn into a drained queue; the slot retires
            # quietly (a clean-exited worker would do the same).
            slot.retired = True
            return
        self._spawn(slot)

    def _on_exit(self, slot: _Slot, exitcode: int, now: float) -> None:
        slot.proc = None
        if exitcode == 0:
            # Clean exit: the worker drained the queue (or hit its run-
            # complete signal). The slot retires; respawning would just
            # spin on an empty scan.
            slot.consecutive = 0
            slot.retired = True
            return
        self.report.crashes += 1
        uptime = now - slot.started_at
        if uptime >= HEALTHY_AFTER_S:
            slot.consecutive = 1  # streak broken by a healthy run
        else:
            slot.consecutive += 1
        strikes = self._strike_held_leases(slot, exitcode)
        _log.warning(
            "supervised worker crashed",
            extra=kv(
                slot=slot.index, worker_id=slot.worker_id,
                exitcode=exitcode, uptime_s=round(uptime, 2),
                consecutive=slot.consecutive, strikes=strikes,
            ),
        )
        self._event(
            "supervisor_crash", slot=slot.index, worker_id=slot.worker_id,
            exitcode=exitcode, consecutive=slot.consecutive,
        )
        if slot.consecutive >= self.max_crashes:
            slot.open = True
            _log.error(
                "crash loop: circuit breaker opened for slot",
                extra=kv(
                    slot=slot.index, crashes=slot.consecutive,
                    max_crashes=self.max_crashes,
                ),
            )
            self._event(
                "supervisor_circuit_open", slot=slot.index,
                crashes=slot.consecutive,
            )
            return
        backoff = min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** (slot.consecutive - 1)),
        )
        slot.next_spawn_at = now + backoff

    def _strike_held_leases(self, slot: _Slot, exitcode: int) -> int:
        """Record a failure attempt on, and free, every cell the dead
        worker still held — this is what feeds a crash-*causing* cell
        into the ordinary MAX_ATTEMPTS poison accounting."""
        if slot.worker_id is None:
            return 0
        struck = 0
        try:
            held = self.queue.leases.owner_leases(slot.worker_id)
        except OSError:
            return 0
        for lease in held:
            try:
                self.queue.record_failure(
                    lease.key,
                    slot.worker_id,
                    f"worker process crashed (exit {exitcode}) while "
                    f"holding this cell's lease",
                )
                self.queue.leases.force_release(lease.key)
            except OSError as exc:
                _log.warning(
                    "failed to strike a dead worker's lease",
                    extra=kv(key=lease.key, error=str(exc)),
                )
                continue
            struck += 1
        self.report.strikes += struck
        return struck

    def _spawn(self, slot: _Slot) -> None:
        from repro.api.registry import registration_modules

        worker_id = (
            f"sup{slot.index}g{slot.generation}-"
            f"{socket.gethostname().split('.')[0]}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:4]}"
        )
        options = {
            "wait_for_work": self.wait_for_work,
            "poll_interval": self.worker_poll_interval,
        }
        if self.cell_timeout_s is not None:
            options["cell_timeout_s"] = self.cell_timeout_s
        proc = self._context.Process(
            target=_worker_process_entry,
            args=(
                # A forked child inherits the handle, parsed batches and all.
                self.queue if self._context.get_start_method() == "fork"
                else str(self.queue.root),
                worker_id,
                self.queue.leases.ttl,
                registration_modules(),
                options,
            ),
            daemon=False,
        )
        proc.start()
        slot.proc = proc
        slot.worker_id = worker_id
        slot.generation += 1
        slot.started_at = time.time()
        self.report.spawned += 1
        _log.info(
            "supervised worker spawned",
            extra=kv(
                slot=slot.index, worker_id=worker_id,
                incarnation=slot.generation,
            ),
        )
        self._event(
            "supervisor_spawn", slot=slot.index, worker_id=worker_id,
            incarnation=slot.generation,
        )

    def _no_work_left(self) -> bool:
        """No cell a fresh worker could make progress on (done, poisoned,
        or — conservatively — none at all readable)."""
        try:
            return not self.queue.frontier().claimable
        except OSError:
            return False  # can't tell: keep supervising

    def _event(self, name: str, **fields) -> None:
        session = _obs_runtime.session
        if session is not None:
            session.event(name, **fields)
