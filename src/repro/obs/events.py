"""The structured event log: bound context + versioned JSONL records.

An *event* is one flat JSON object on one line::

    {"schema": 1, "t": 1722340000.123, "event": "cell_done",
     "run_id": "r-1f3a", "worker_id": "host-411-ab12ef",
     "key": "0a4be2…", "source": "run", "wall_s": 1.92}

``schema`` versions the record layout; ``t`` is the wall-clock epoch
stamp; ``event`` names what happened; everything else is payload —
first the *bound context* (run/worker/cell identifiers attached with
:func:`bind` around a region of code), then the call-site fields, which
win on collision.

Writing goes through :class:`JsonlSink`, which is **fork-aware**: files
are suffixed with the writer's pid (``events-<pid>.jsonl``) and the
sink lazily reopens under a new name when it notices the pid changed,
so queue workers forked mid-session never interleave bytes with their
parent. Every record is flushed on write — an event log that loses its
tail on SIGKILL would be useless for exactly the crashes it exists to
explain.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import time
from pathlib import Path

from repro.utils.durable import OK, scan_sealed_jsonl

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "JsonlSink",
    "bind",
    "current_context",
    "make_event",
    "read_jsonl",
    "read_events",
]

EVENT_SCHEMA_VERSION = 1

#: stack of bound context dicts (a contextvar so the heartbeat thread
#: sees its own bindings)
_CONTEXT: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_obs_context", default=()
)


def current_context() -> dict:
    """The merged bound context, innermost binding winning."""
    merged: dict = {}
    for layer in _CONTEXT.get():
        merged.update(layer)
    return merged


@contextlib.contextmanager
def bind(**context):
    """Attach ``context`` fields to every event emitted in this scope."""
    token = _CONTEXT.set(_CONTEXT.get() + (context,))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def make_event(name: str, **fields) -> dict:
    """Assemble one event record (context merged, call-site fields win)."""
    return {
        "schema": EVENT_SCHEMA_VERSION,
        "t": time.time(),
        "event": name,
        **current_context(),
        **fields,
    }


class JsonlSink:
    """A pid-suffixed, fork-aware, flush-per-record JSONL writer.

    ``directory=None`` buffers records in memory instead (``.buffer``) —
    used by tests and by sessions that want metrics/progress without
    touching disk.
    """

    def __init__(self, directory: str | os.PathLike | None, prefix: str) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.prefix = prefix
        self.buffer: list[dict] = []
        self._handle = None
        self._pid: int | None = None

    @property
    def path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{self.prefix}-{os.getpid()}.jsonl"

    def write(self, record: dict) -> None:
        if self.directory is None:
            self.buffer.append(record)
            return
        pid = os.getpid()
        if self._handle is None or pid != self._pid:
            # First write in this process (or first after a fork):
            # open this process's own file. The inherited parent handle
            # is abandoned unflushed-empty, never written through.
            self.directory.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
            self._pid = pid
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and self._pid == os.getpid():
            self._handle.close()
        self._handle = None
        self._pid = None


def _as_record(doc: object) -> dict | None:
    return doc if isinstance(doc, dict) else None


def read_jsonl(directory: str | os.PathLike, prefix: str) -> list[dict]:
    """All ``<prefix>-*.jsonl`` records under ``directory``, time-sorted.

    Read through the shared line reader; telemetry is best-effort, so
    torn tails (a record cut mid-write by a crash) and corrupt lines
    are both skipped rather than quarantined.
    """
    records: list[dict] = []
    directory = Path(directory)
    for path in sorted(directory.glob(f"{prefix}-*.jsonl")):
        records.extend(
            line.value
            for line in scan_sealed_jsonl(path.read_text(), _as_record)
            if line.verdict == OK
        )
    records.sort(key=lambda r: r.get("t", 0.0))
    return records


def read_events(directory: str | os.PathLike) -> list[dict]:
    """Every event record a session (and its forked children) wrote."""
    return read_jsonl(directory, "events")
