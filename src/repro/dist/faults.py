"""Deterministic fault injection for the distributed dispatch layer.

A :class:`FaultPlan` scripts what goes wrong and *when*, in terms of
worker decision points rather than wall-clock time, so integration tests
reproduce the same failure on every run:

* ``kill_after_claims=n`` — SIGKILL the worker process the instant it
  wins its *n*-th lease claim (crash holding a lease, nothing published).
* ``kill_before_publish=n`` — SIGKILL the instant the *n*-th result is
  finished, before it joins the pending group commit (it and whatever
  was still pending are lost; every held cell re-issues).
* ``drop_heartbeats_after=n`` — the heartbeat thread silently stops
  renewing after *n* beats (simulated straggler/partition: the worker
  keeps executing, its lease expires, the cell is re-issued elsewhere
  and the late publish lands idempotently).
* ``delay_publish_s=t`` — sleep at that same point for every result
  (publish skew).
* ``kill_coordinator_at=point`` — SIGKILL the *coordinator* process at
  a named run-lifecycle point: ``staged`` (manifest written, specs not
  yet staged — mid-enqueue), ``sealed`` (manifest sealed, batches not
  yet promoted), ``dispatch`` (inside the dispatch poll loop) or
  ``merge`` (just before the final merge). ``kill_coordinator_nth``
  picks the *n*-th crossing of that point (the dispatch loop crosses
  it every poll), so a resume-then-die-again can be scripted.
* ``io_faults=[{...}, ...]`` — scripted *storage* faults fired by the
  :class:`~repro.dist.store.Store` seam. Each entry scripts one fault::

      {"op": "append", "path": "results/*", "errno": "EIO",
       "nth": 2, "count": 1, "torn": true, "delay_s": 0.0}

  ``op`` names the store operation (``read``/``write``/``append``/
  ``create``/``replace``/``rename``/``unlink``/``stat``, or ``any``);
  ``path`` is an fnmatch pattern against the full path (an implicit
  leading ``*`` makes ``results/*`` match anywhere under the queue);
  the fault fires on the ``nth`` matching operation (1-based) and the
  ``count - 1`` after it (``count: 0`` = forever, e.g. a filled-up
  volume); ``errno`` is the symbolic errno raised (omit for pure
  slow-IO via ``delay_s``); ``torn: true`` additionally strands a
  partial line before the error surfaces (append ops only).

Kills are real ``SIGKILL``s delivered to ``os.getpid()`` — no cleanup
handlers run, the lease file stays behind exactly as a crashed host
would leave it.

Plans serialise to JSON and travel to worker subprocesses either by
constructor (in-process dispatch) or through the ``REPRO_DIST_FAULTS``
environment variable (the ``repro work`` CLI), which is how the CI
``dist-smoke`` job scripts its mid-run worker loss.
"""

from __future__ import annotations

import errno as _errno
import fnmatch
import json
import os
import signal
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FAULTS_ENV",
    "IO_FAULT_OPS",
    "COORDINATOR_KILL_POINTS",
]

FAULTS_ENV = "REPRO_DIST_FAULTS"

#: run-lifecycle points a ``kill_coordinator_at`` plan may target
COORDINATOR_KILL_POINTS = ("staged", "sealed", "dispatch", "merge")

#: store operations an ``io_faults`` entry may target
IO_FAULT_OPS = frozenset({
    "read", "write", "append", "create", "replace", "rename", "unlink",
    "stat", "any",
})

_IO_FAULT_KEYS = frozenset({
    "op", "path", "errno", "nth", "count", "torn", "delay_s",
})


def _validate_io_fault(entry: Mapping, index: int) -> dict:
    if not isinstance(entry, Mapping):
        raise ValueError(
            f"FaultPlan.io_faults[{index}] must be a mapping, got {entry!r}"
        )
    unknown = set(entry) - _IO_FAULT_KEYS
    if unknown:
        raise ValueError(
            f"unknown io_faults[{index}] field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_IO_FAULT_KEYS)}"
        )
    out = dict(entry)
    op = out.setdefault("op", "any")
    if op not in IO_FAULT_OPS:
        raise ValueError(
            f"io_faults[{index}].op must be one of {sorted(IO_FAULT_OPS)}, "
            f"got {op!r}"
        )
    out.setdefault("path", "*")
    code = out.setdefault("errno", None)
    if code is not None and not hasattr(_errno, str(code)):
        raise ValueError(
            f"io_faults[{index}].errno must be a symbolic errno name "
            f"(e.g. 'EIO', 'ENOSPC', 'ESTALE'), got {code!r}"
        )
    nth = out.setdefault("nth", 1)
    if not isinstance(nth, int) or isinstance(nth, bool) or nth < 1:
        raise ValueError(
            f"io_faults[{index}].nth must be a positive int, got {nth!r}"
        )
    count = out.setdefault("count", 1)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError(
            f"io_faults[{index}].count must be an int >= 0 (0 = forever), "
            f"got {count!r}"
        )
    out.setdefault("torn", False)
    if not isinstance(out["torn"], bool):
        raise ValueError(
            f"io_faults[{index}].torn must be a bool, got {out['torn']!r}"
        )
    delay = out.setdefault("delay_s", 0.0)
    if not isinstance(delay, (int, float)) or isinstance(delay, bool) or delay < 0:
        raise ValueError(
            f"io_faults[{index}].delay_s must be >= 0, got {delay!r}"
        )
    if out["errno"] is None and not out["delay_s"] and not out["torn"]:
        raise ValueError(
            f"io_faults[{index}] scripts nothing: give errno, torn or delay_s"
        )
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A scripted set of failures, keyed by worker decision points."""

    kill_after_claims: int | None = None
    kill_before_publish: int | None = None
    drop_heartbeats_after: int | None = None
    delay_publish_s: float = 0.0
    #: scripted storage faults, fired through the Store seam (see the
    #: module docstring for the entry schema)
    io_faults: tuple = ()
    #: SIGKILL the coordinator at a run-lifecycle point (see the
    #: module docstring); workers ignore these fields
    kill_coordinator_at: str | None = None
    kill_coordinator_nth: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_after_claims", "kill_before_publish",
                     "drop_heartbeats_after"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError(
                    f"FaultPlan.{name} must be a positive int or None, "
                    f"got {value!r}"
                )
        if self.kill_coordinator_at is not None and (
            self.kill_coordinator_at not in COORDINATOR_KILL_POINTS
        ):
            raise ValueError(
                f"FaultPlan.kill_coordinator_at must be one of "
                f"{COORDINATOR_KILL_POINTS} or None, "
                f"got {self.kill_coordinator_at!r}"
            )
        nth = self.kill_coordinator_nth
        if not isinstance(nth, int) or isinstance(nth, bool) or nth < 1:
            raise ValueError(
                f"FaultPlan.kill_coordinator_nth must be a positive int, "
                f"got {nth!r}"
            )
        if self.delay_publish_s < 0:
            raise ValueError(
                f"FaultPlan.delay_publish_s must be >= 0, "
                f"got {self.delay_publish_s!r}"
            )
        if isinstance(self.io_faults, Mapping) or isinstance(self.io_faults, str):
            raise ValueError(
                f"FaultPlan.io_faults must be a list of fault mappings, "
                f"got {self.io_faults!r}"
            )
        object.__setattr__(
            self,
            "io_faults",
            tuple(
                _validate_io_fault(entry, i)
                for i, entry in enumerate(self.io_faults)
            ),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {text!r}")
        unknown = set(data) - {f for f in asdict(cls()).keys()}
        if unknown:
            raise ValueError(
                f"unknown fault plan field(s) {sorted(unknown)}; "
                f"allowed: {sorted(asdict(cls()).keys())}"
            )
        return cls(**data)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan scripted in ``REPRO_DIST_FAULTS``, if any."""
        text = os.environ.get(FAULTS_ENV)
        return cls.from_json(text) if text else None


class FaultInjector:
    """Counts decision points and fires the plan's scripted faults."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.claims = 0
        self.publishes = 0
        self.heartbeats = 0
        #: per-point crossings of the coordinator lifecycle
        self.coordinator_points: dict[str, int] = {}
        #: per-io_faults-entry count of operations that matched its
        #: (op, path) selector — the "Nth matching op" clock
        self.io_matches = [0] * len(self.plan.io_faults)
        #: per-entry count of times the fault actually fired
        self.io_fired = [0] * len(self.plan.io_faults)

    def _kill_self(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def on_claim(self, key: str) -> None:
        """Called right after a lease claim is won."""
        self.claims += 1
        if self.plan.kill_after_claims is not None and (
            self.claims >= self.plan.kill_after_claims
        ):
            self._kill_self()

    def on_publish(self, key: str) -> None:
        """Called as a finished result is handed over for publication."""
        self.publishes += 1
        if self.plan.kill_before_publish is not None and (
            self.publishes >= self.plan.kill_before_publish
        ):
            self._kill_self()
        if self.plan.delay_publish_s:
            time.sleep(self.plan.delay_publish_s)

    def on_coordinator(self, point: str) -> None:
        """Called by the coordinator at each run-lifecycle point.

        Counts crossings per point and SIGKILLs the coordinator on the
        plan's ``kill_coordinator_nth``-th crossing of its scripted
        ``kill_coordinator_at`` point — a real kill, leaving the
        manifest/staging/lease state exactly as a dead host would.
        """
        self.coordinator_points[point] = (
            self.coordinator_points.get(point, 0) + 1
        )
        if (
            self.plan.kill_coordinator_at == point
            and self.coordinator_points[point]
            >= self.plan.kill_coordinator_nth
        ):
            self._kill_self()

    def on_heartbeat(self) -> bool:
        """Whether the heartbeat thread should actually renew."""
        self.heartbeats += 1
        return not (
            self.plan.drop_heartbeats_after is not None
            and self.heartbeats > self.plan.drop_heartbeats_after
        )

    @staticmethod
    def _path_matches(pattern: str, path: str) -> bool:
        # fnmatch against the full path with an implicit leading `*`, so
        # "results/*" targets the results dir of any queue root.
        return (
            fnmatch.fnmatch(path, pattern)
            or fnmatch.fnmatch(path, f"*{pattern}")
        )

    def on_io(self, op: str, path: str) -> dict | None:
        """Called by the Store seam before each operation.

        Advances every matching ``io_faults`` entry's match counter and
        returns the first entry whose firing window (``nth`` …
        ``nth + count - 1`` matches; ``count: 0`` = open-ended) covers
        this operation, or None. The *store* applies the fault (raise /
        torn write / delay) — the injector only does the deterministic
        bookkeeping, so counts stay comparable across retries.
        """
        fired: dict | None = None
        for index, fault in enumerate(self.plan.io_faults):
            if fault["op"] != "any" and fault["op"] != op:
                continue
            if not self._path_matches(fault["path"], path):
                continue
            self.io_matches[index] += 1
            clock = self.io_matches[index]
            count = fault["count"]
            in_window = clock >= fault["nth"] and (
                count == 0 or clock < fault["nth"] + count
            )
            if in_window and fired is None:
                self.io_fired[index] += 1
                fired = fault
        return fired
