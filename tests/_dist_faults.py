"""Scripted failures for the distributed layer, built on its own seams.

``repro.dist`` itself knows nothing of faults. This module scripts them
from outside, as subclasses of seams the layer already has:

* :class:`FaultStore` — a :class:`~repro.dist.store.Store` whose every
  operation first consults the plan's ``io_faults`` inside
  ``Store._run``, so an injected errno goes through the real
  classification and retry path;
* :class:`FaultyWorker` — a :class:`~repro.dist.worker.QueueWorker`
  that dies after its n-th won claim, dies or stalls just before a
  finished result joins the pending group commit, does its IO through
  a :class:`FaultStore` and renews through a heartbeat that can go
  quiet;
* :class:`FaultyQueue` — the coordinator's
  :class:`~repro.dist.queue.WorkQueue`, which SIGKILLs the coordinator
  at a run-lifecycle point.

A :class:`FaultPlan` scripts what goes wrong and *when*, in terms of
decision points rather than wall-clock time, so a test reproduces the
same failure on every run:

* ``kill_after_claims=n`` — SIGKILL the worker the instant it wins its
  *n*-th lease claim (crash holding a lease, nothing published).
* ``kill_before_publish=n`` — SIGKILL the instant the *n*-th result is
  finished, before it joins the pending group commit (it and whatever
  was still pending are lost; every held cell re-issues).
* ``drop_heartbeats_after=n`` — the heartbeat stops renewing after *n*
  renewals (a straggler: the worker keeps executing, its lease expires,
  the cell is re-issued elsewhere and the late publish lands
  idempotently).
* ``delay_publish_s=t`` — sleep at that same point for every result
  (publish skew).
* ``kill_coordinator_at=point`` — SIGKILL the *coordinator* at
  ``staged`` (manifest written, specs not yet staged — mid-enqueue),
  ``sealed`` (manifest sealed, batches not yet promoted), ``dispatch``
  (a frontier listing: before the workers launch, then every poll) or
  ``merge`` (just before the final merge). ``kill_coordinator_nth``
  picks the *n*-th crossing of that point.
* ``io_faults=[{...}, ...]`` — storage faults, one entry each::

      {"op": "append", "path": "results/*", "errno": "EIO",
       "nth": 2, "count": 1, "torn": true, "delay_s": 0.0}

  ``op`` names the store operation (``read``/``write``/``append``/
  ``create``/``replace``/``rename``/``unlink``/``stat``, or ``any``);
  ``path`` is an fnmatch pattern against the full path (an implicit
  leading ``*`` makes ``results/*`` match anywhere under the queue);
  the fault fires on the ``nth`` matching operation (1-based) and the
  ``count - 1`` after it (``count: 0`` = forever, e.g. a filled-up
  volume); ``errno`` is the symbolic errno raised (omit for pure
  slow IO via ``delay_s``); ``torn: true`` first strands part of the
  line being appended (append ops only).

Kills are real ``SIGKILL``s delivered to ``os.getpid()`` — no cleanup
handlers run, the lease files stay behind exactly as a crashed host
would leave them.

Plans are keyed by a prefix of the id of the process they script.
Supervised workers are ``sup<slot>g<incarnation>-…`` (``"sup0g0"`` is
slot 0's first incarnation, ``"sup0g"`` every incarnation of it), a
``repro work --worker-id ID`` worker is ``ID``, and the coordinator is
``coord-<host>-<pid>`` (``"coord"``). :func:`install` routes every
worker and coordinator queue the process builds from then on through
these classes; forked workers inherit that. From a shell, in the
repository root::

    PYTHONPATH=src python -m tests._dist_faults \\
        '{"late": {"kill_after_claims": 1}}' -- \\
        work --queue /tmp/q --worker-id late
"""

from __future__ import annotations

import errno as _errno
import fnmatch
import json
import os
import signal
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path

import repro.dist
import repro.dist.coordinator as coordinator
import repro.dist.supervise as supervise
from repro.dist.queue import WorkQueue
from repro.dist.store import RetryPolicy, Store
from repro.dist.worker import Heartbeat, QueueWorker

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
    """A scripted set of failures, keyed by decision points."""

    kill_after_claims: int | None = None
    kill_before_publish: int | None = None
    drop_heartbeats_after: int | None = None
    delay_publish_s: float = 0.0
    #: scripted storage faults, fired by FaultStore (see the module
    #: docstring for the entry schema)
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
        """Called at each crossing of a run-lifecycle point; SIGKILLs
        the process on the plan's ``kill_coordinator_nth``-th crossing
        of its ``kill_coordinator_at`` point."""
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
        """Whether the heartbeat should actually renew."""
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
        """Called before each attempt of a store operation.

        Advances every matching ``io_faults`` entry's match counter and
        returns the first entry whose firing window (``nth`` …
        ``nth + count - 1`` matches; ``count: 0`` = open-ended) covers
        this operation, or None. The store carries the fault out; the
        injector only keeps the count, so counts stay comparable across
        retries.
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


# -- the seams ---------------------------------------------------------------


def _strand_prefix(path: Path, line: str) -> None:
    """Leave what a writer dying mid-append leaves: a prefix of the
    bytes the append would write, cut *inside* a line (a group commit
    carries several lines; never cut between two)."""
    payload = (line + "\n").encode("utf-8")
    with open(path, "ab+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                payload = b"\n" + payload  # the append's newline guard
        prefix = payload[: max(1, len(payload) // 2)]
        if prefix.endswith(b"\n") or payload[len(prefix):].startswith(b"\n"):
            prefix = prefix.rstrip(b"\n")[:-1]
        handle.write(prefix)


class FaultStore(Store):
    """A :class:`Store` that fires a plan's ``io_faults`` (slow IO, torn
    append, errno) inside ``_run``, ahead of each attempt."""

    def __init__(self, faults: FaultInjector, **kwargs) -> None:
        super().__init__(**kwargs)
        self.faults = faults
        self._line: str | None = None  # what the append in flight writes

    def fsync_append(self, path, line: str) -> None:
        self._line = line
        try:
            super().fsync_append(path, line)
        finally:
            self._line = None

    def _run(self, op: str, path: Path, fn):
        def attempt():
            fault = self.faults.on_io(op, str(path))
            if fault is not None:
                if fault["delay_s"]:
                    self._sleep(fault["delay_s"])
                if fault["torn"] and op == "append":
                    _strand_prefix(Path(path), self._line)
                if fault["errno"] is not None:
                    raise OSError(
                        getattr(_errno, fault["errno"]),
                        f"injected fault: {fault['errno']}",
                    )
            return fn()

        return super()._run(op, path, attempt)


class FaultyHeartbeat(Heartbeat):
    """A heartbeat that stops renewing after ``drop_heartbeats_after``
    renewals."""

    def __init__(self, faults: FaultInjector, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.faults = faults

    def _renew(self, key: str) -> None:
        if self.faults.on_heartbeat():
            super()._renew(key)


#: plans by id prefix, set by :func:`install`
PLANS: dict[str, FaultPlan] = {}


def plan_for(owner: str) -> FaultPlan | None:
    """The installed plan whose key is a prefix of ``owner``, if any."""
    return next(
        (plan for prefix, plan in PLANS.items() if owner.startswith(prefix)),
        None,
    )


class FaultyWorker(QueueWorker):
    """A :class:`QueueWorker` scripted by ``plan`` (default: the
    installed plan keyed by a prefix of its worker id)."""

    def __init__(self, queue, worker_id=None, *, plan=None, **kwargs) -> None:
        super().__init__(queue, worker_id, **kwargs)
        self.faults = FaultInjector(
            plan if plan is not None else plan_for(self.worker_id)
        )
        self.store = FaultStore(
            self.faults, retry=RetryPolicy(seed=self.worker_id),
            metrics=self.metrics,
        )
        self.queue.use_store(self.store)
        self._heartbeat = FaultyHeartbeat(
            self.faults, self.queue, None, self.worker_id,
            self.queue.leases.ttl / 4.0, metrics=self.metrics,
        )

    def _claim(self, key: str) -> bool:
        if not super()._claim(key):
            return False
        self.faults.on_claim(key)
        return True

    def _execute_with_deadline(self, key: str):
        result = super()._execute_with_deadline(key)
        self.faults.on_publish(key)  # the result joins _pending next
        return result


class FaultyQueue(WorkQueue):
    """The coordinator's queue: crossing a run-lifecycle point counts
    toward the installed coordinator plan's kill."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.faults = FaultInjector(plan_for(coordinator._coordinator_owner()))

    def write_manifest(self, manifest) -> None:
        super().write_manifest(manifest)
        if manifest.state in ("staged", "sealed"):
            self.faults.on_coordinator(manifest.state)

    def frontier(self):
        self.faults.on_coordinator("dispatch")
        return super().frontier()

    def merged_results(self):
        self.faults.on_coordinator("merge")
        return super().merged_results()


def install(plans: Mapping[str, FaultPlan], monkeypatch=None) -> None:
    """Script every worker and coordinator queue this process — and the
    worker processes it forks — constructs from now on.

    ``plans`` maps an id prefix to its :class:`FaultPlan`. Through a
    pytest ``monkeypatch`` everything is undone after the test; without
    one (a forked child, the command line) it stays for the process.
    """
    bind = monkeypatch.setattr if monkeypatch is not None else setattr
    bind(sys.modules[__name__], "PLANS", dict(plans))
    for module in (supervise, coordinator, repro.dist):
        bind(module, "QueueWorker", FaultyWorker)
    bind(coordinator, "WorkQueue", FaultyQueue)


def main(argv: list[str]) -> int:
    """``python -m tests._dist_faults PLANS_JSON -- REPRO_ARGS...``: run
    the ``repro`` command line with ``PLANS_JSON`` (an object mapping id
    prefixes to plan objects) installed."""
    from repro.api.cli import main as repro_main

    if len(argv) < 2 or argv[1] != "--":
        print(
            "usage: python -m tests._dist_faults PLANS_JSON -- REPRO_ARGS...",
            file=sys.stderr,
        )
        return 2
    install({
        prefix: FaultPlan.from_json(json.dumps(spec))
        for prefix, spec in json.loads(argv[0]).items()
    })
    return repro_main(argv[2:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
