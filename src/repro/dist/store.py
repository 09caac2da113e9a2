"""The storage seam of the distributed layer: every byte through one door.

On a single healthy disk the queue/lease protocol's filesystem calls
may as well be infallible; on the NFS-style shared mounts the 10⁶-cell
sweep targets they are the *primary* failure surface — transient
``EIO``/``ESTALE`` flakes, ``ENOSPC`` on a filled volume, torn writes
from a dying client. :class:`Store` routes every queue, lease and
journal operation through one seam that layers two behaviours the
raw calls lack:

* **Deterministic fault injection** — the worker's
  :class:`~repro.dist.faults.FaultInjector` scripts ``io_faults``
  (errno, torn write, slow IO) on the Nth operation matching a path
  pattern, so integration tests reproduce the same storage failure on
  every run (``REPRO_DIST_FAULTS`` carries the plan to CLI workers).
* **Errno-classified bounded retry** — transient errnos (``EIO``,
  ``ESTALE``, ``ETIMEDOUT``, ``EAGAIN``, …) are retried with
  exponential backoff and *seeded* jitter drawn from a private
  ``random.Random`` keyed by the owner id, so the retry schedule is
  reproducible per worker and never touches experiment RNG. Permanent
  errnos (``ENOSPC``, ``EROFS``, ``EDQUOT``) and exhausted retries
  raise :class:`StoreUnavailable`, the worker's cue to degrade
  gracefully. *Semantic* errnos (``ENOENT``, ``EEXIST``, …) propagate
  untouched — the lease protocol's atomicity is built on them.

The bytes themselves — atomic replace, fsynced append with its newline
guard, CRC32 seals — are :mod:`repro.utils.durable`'s; this module adds
the failure handling around them. After a failed append attempt an
unknown number of bytes may have landed; the append's newline guard
makes the retry start on a fresh line, so the stranded fragment fails
its checksum on merge and lands in ``quarantine/`` — corruption is
accounted for, never double-counted as a result.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import random
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.utils.durable import append_line, atomic_write

__all__ = [
    "Store",
    "StoreUnavailable",
    "RetryPolicy",
    "classify_errno",
    "TRANSIENT_ERRNOS",
    "PERMANENT_ERRNOS",
]

#: errnos worth retrying: the operation may succeed on the next attempt
#: (NFS client flake, stale handle after a server reboot, timeout).
TRANSIENT_ERRNOS = frozenset({
    _errno.EIO,
    _errno.ESTALE,
    _errno.ETIMEDOUT,
    _errno.EAGAIN,
    _errno.EBUSY,
    _errno.EINTR,
})

#: errnos no retry can fix: the volume is full or read-only. These
#: escalate to StoreUnavailable immediately so the worker can degrade
#: (spool locally) instead of burning its retry budget.
PERMANENT_ERRNOS = frozenset({
    _errno.ENOSPC,
    _errno.EROFS,
    _errno.EDQUOT,
})


def classify_errno(code: int | None) -> str:
    """``"transient"`` | ``"permanent"`` | ``"semantic"`` for an errno.

    Semantic errnos (``ENOENT``, ``EEXIST``, …) are part of the lease
    protocol's contract — losing an ``O_EXCL`` race *is* ``EEXIST`` —
    and must propagate to the caller untouched, never retried.
    """
    if code in TRANSIENT_ERRNOS:
        return "transient"
    if code in PERMANENT_ERRNOS:
        return "permanent"
    return "semantic"


class StoreUnavailable(OSError):
    """The shared store refused an operation beyond repair/retry.

    Raised for permanent errnos and for transient errnos that survived
    the full retry budget. ``op``/``path`` identify the operation;
    ``permanent`` says which escalation path fired. The worker treats
    this as the signal to enter degraded mode (spool locally, keep
    heartbeating, flush on recovery).
    """

    def __init__(self, op: str, path: str, cause: OSError, permanent: bool,
                 attempts: int = 1) -> None:
        reason = "permanent storage error" if permanent else (
            f"transient storage error persisted through {attempts} attempt(s)"
        )
        super().__init__(
            cause.errno or _errno.EIO,
            f"{reason} during {op} on {path}: "
            f"[{_errno.errorcode.get(cause.errno or 0, cause.errno)}] {cause}",
        )
        self.op = op
        self.path = str(path)
        self.permanent = permanent
        self.attempts = attempts


# -- retry policy ----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded, bounded jitter.

    The delay before retry *k* (1-based) is
    ``min(max_delay_s, base_delay_s * 2**(k-1)) * (1 + u*jitter)`` with
    ``u`` drawn from a private ``random.Random`` seeded by ``seed``
    (the worker id), so two workers never sync their retry storms yet
    each worker's schedule is exactly reproducible — and the experiment
    RNG (numpy, per-cell ``SeedSequence``) is never touched.
    """

    max_retries: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25
    seed: str = ""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("retry delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def rng(self) -> random.Random:
        """A fresh, deterministically seeded jitter stream."""
        return random.Random(zlib.crc32(self.seed.encode("utf-8")))

    def _delay(self, attempt: int, u: float) -> float:
        """The backoff before retry ``attempt`` for jitter draw ``u``."""
        base = min(self.max_delay_s, self.base_delay_s * 2 ** (attempt - 1))
        return base * (1.0 + u * self.jitter)

    def delays(self) -> list[float]:
        """The full retry schedule (deterministic for a given seed)."""
        rng = self.rng()
        return [
            self._delay(attempt, rng.random())
            for attempt in range(1, self.max_retries + 1)
        ]

    def max_total_wait_s(self) -> float:
        """Upper bound on the summed backoff sleeps (jitter maximal)."""
        return sum(
            self._delay(attempt, 1.0)
            for attempt in range(1, self.max_retries + 1)
        )


# -- the seam --------------------------------------------------------------


class Store:
    """Checked, retried, fault-injectable filesystem operations.

    Parameters
    ----------
    retry:
        The transient-errno :class:`RetryPolicy` (default: 5 attempts,
        50 ms base, 2 s cap). ``RetryPolicy(max_retries=0)`` disables
        retrying without disabling classification.
    faults:
        A :class:`~repro.dist.faults.FaultInjector` whose ``on_io``
        hook scripts deterministic IO failures (tests/CI only).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; retries,
        detected corruption and degraded transitions are counted under
        ``store.*`` names.
    sleep:
        Override for ``time.sleep`` (tests pin the backoff schedule
        without waiting it out).
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        faults=None,
        metrics=None,
        sleep=time.sleep,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.metrics = metrics
        self._sleep = sleep
        self._jitter = self.retry.rng()

    # -- bookkeeping ------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _fire(self, op: str, path: Path) -> dict | None:
        """The scripted fault (if any) matching this op, already counted."""
        if self.faults is None:
            return None
        return self.faults.on_io(op, str(path))

    def _apply_fault(self, fault: dict, handle=None, payload: bytes | None = None):
        """Carry out one fired fault spec: slow IO, torn write, errno."""
        delay = float(fault.get("delay_s", 0.0))
        if delay > 0:
            self._sleep(delay)
        if fault.get("torn") and handle is not None and payload:
            # A dying writer: a prefix of the bytes lands, then the
            # error surfaces. The stranded fragment is exactly what the
            # checksum/quarantine path exists to catch. A group commit
            # carries several lines: cut *inside* one, never between two.
            prefix = payload[: max(1, len(payload) // 2)]
            if prefix.endswith(b"\n") or payload[len(prefix):].startswith(b"\n"):
                prefix = prefix.rstrip(b"\n")[:-1]
            handle.write(prefix)
            handle.flush()
        code = fault.get("errno")
        if code is not None:
            num = getattr(_errno, code) if isinstance(code, str) else int(code)
            raise OSError(num, f"injected fault: {code}")

    def _run(self, op: str, path: Path, fn, fire: bool = True):
        """Execute ``fn`` with fault injection, classification, retry."""
        attempt = 0
        while True:
            try:
                if fire:
                    fault = self._fire(op, path)
                    if fault is not None:
                        self._apply_fault(fault)
                return fn()
            except OSError as exc:
                kind = classify_errno(exc.errno)
                if kind == "semantic":
                    raise
                if kind == "permanent":
                    self._count("store.permanent_errors")
                    raise StoreUnavailable(
                        op, str(path), exc, permanent=True,
                        attempts=attempt + 1,
                    ) from exc
                attempt += 1
                self._count("store.retries")
                if attempt > self.retry.max_retries:
                    self._count("store.retry_exhausted")
                    raise StoreUnavailable(
                        op, str(path), exc, permanent=False, attempts=attempt,
                    ) from exc
                if self.metrics is not None:
                    self.metrics.counter(f"store.retried.{op}").inc()
                self._sleep(
                    self.retry._delay(attempt, self._jitter.random())
                )

    # -- operations --------------------------------------------------------

    def read_text(self, path: str | os.PathLike) -> str:
        path = Path(path)
        return self._run("read", path, path.read_text)

    def read_json(self, path: str | os.PathLike) -> dict:
        """Parse a JSON document (parse errors propagate to the caller)."""
        return json.loads(self.read_text(path))

    def stat_mtime(self, path: str | os.PathLike) -> float:
        path = Path(path)
        return self._run("stat", path, lambda: path.stat().st_mtime)

    def atomic_write_json(self, path: str | os.PathLike, payload: dict) -> None:
        """Write ``payload`` via temp file + ``os.replace`` (idempotent,
        so the retry loop can safely re-run the whole sequence)."""
        path = Path(path)
        self._run(
            "write", path,
            lambda: atomic_write(
                path, lambda handle: json.dump(payload, handle, sort_keys=True)
            ),
        )

    def atomic_write_text(self, path: str | os.PathLike, text: str) -> None:
        """Write ``text`` whole via temp file + ``os.replace``.

        The batch-enqueue path publishes one sealed-JSONL spec file per
        generation through this: readers see the complete file or no
        file, never a prefix — which is what lets a manifest seal stand
        in for 10⁶ individual spec creates.
        """
        path = Path(path)
        self._run(
            "write", path,
            lambda: atomic_write(
                path, lambda handle: handle.write(text), fsync=True
            ),
        )

    def fsync_append(self, path: str | os.PathLike, line: str) -> None:
        """Durably append ``line`` (or several, newline-joined: a group
        commit) under one write, flush and ``fsync`` (file, and the
        directory on first create).

        The torn-write fault injects mid-write through the open handle,
        so a scripted partial append leaves exactly the bytes a dying
        NFS client would.
        """
        path = Path(path)

        def inject(handle, payload: bytes) -> None:
            fault = self._fire("append", path)
            if fault is not None:
                self._apply_fault(fault, handle=handle, payload=payload)

        self._run(
            "append", path,
            lambda: append_line(path, line, before_write=inject),
            fire=False,
        )

    def create_excl_json(self, path: str | os.PathLike, payload: dict) -> bool:
        """``O_CREAT | O_EXCL`` claim write; False when the race is lost.

        ``FileExistsError`` is semantic (exactly-one-winner is the
        point); transient errors on the *open* retry safely — if an
        earlier attempt did create the file, the retry loses the race
        to itself and the claim ages out as a torn lease, which is the
        conservative outcome.
        """
        path = Path(path)

        def create() -> bool:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            return True

        return self._run("create", path, create)

    def replace(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        src, dst = Path(src), Path(dst)
        self._run("replace", dst, lambda: os.replace(src, dst))

    def rename(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        """Plain rename — ``FileNotFoundError`` stays semantic (it is
        how a reaper learns it lost the race)."""
        src, dst = Path(src), Path(dst)
        self._run("rename", src, lambda: os.rename(src, dst))

    def unlink(self, path: str | os.PathLike) -> None:
        path = Path(path)
        self._run("unlink", path, path.unlink)
