"""Nestable tracing spans and the Chrome-trace/Perfetto exporter.

A *span* is one timed region — run → cell → workload episode — recorded
against ``perf_counter`` (monotonic, sub-µs) for the duration and
``time.time`` for the wall anchor, so traces from several processes
line up on one shared timeline. Nesting is tracked with a contextvar
stack: each span records its parent's id, and the exporter double-checks
containment structurally.

Records live in pid-suffixed ``spans-<pid>.jsonl`` files beside the
event log; :func:`to_chrome_trace` converts them into the Chrome
``traceEvents`` JSON (complete ``"ph": "X"`` events, microsecond
timestamps) that chrome://tracing and https://ui.perfetto.dev load
directly — ``repro trace export`` is the CLI wrapper.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import threading
import time
from pathlib import Path

from repro.obs.events import JsonlSink, read_jsonl

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "SpanRecorder",
    "load_spans",
    "to_chrome_trace",
    "export_chrome_trace",
]

SPAN_SCHEMA_VERSION = 1

#: stack of open span ids (contextvar: thread- and generator-local)
_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_obs_spans", default=()
)


class SpanRecorder:
    """Records completed spans into a fork-aware JSONL sink."""

    def __init__(self, directory: str | os.PathLike | None) -> None:
        self.sink = JsonlSink(directory, "spans")
        self._ids = itertools.count(1)

    def _new_id(self) -> str:
        # pid-qualified so ids from forked children never collide
        return f"{os.getpid():x}.{next(self._ids)}"

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time a region; record it (with its parent) when it closes.

        Yields ``attrs``, open for values only known by then."""
        span_id = self._new_id()
        stack = _STACK.get()
        token = _STACK.set(stack + (span_id,))
        wall_start = time.time()
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            duration = time.perf_counter() - t0
            _STACK.reset(token)
            self.sink.write(
                {
                    "schema": SPAN_SCHEMA_VERSION,
                    "name": name,
                    "t": wall_start,
                    "dur_s": duration,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "span_id": span_id,
                    "parent_id": stack[-1] if stack else None,
                    **({"attrs": attrs} if attrs else {}),
                }
            )

    def close(self) -> None:
        self.sink.close()


def load_spans(directory: str | os.PathLike) -> list[dict]:
    """Every span record under ``directory``, sorted by start time."""
    return [
        record
        for record in read_jsonl(directory, "spans")
        if record.get("schema") == SPAN_SCHEMA_VERSION
    ]


def to_chrome_trace(spans: list[dict], events: list[dict] | None = None) -> dict:
    """Render span records as a Chrome-trace ``traceEvents`` document.

    Spans become complete (``"ph": "X"``) slices; structured events, when
    given, ride along as instant (``"ph": "i"``) markers so the log and
    the timeline stay on one view. Timestamps are microseconds relative
    to the earliest record, which keeps the numbers small enough for
    every viewer.
    """
    stamps = [s["t"] for s in spans] + [e.get("t", 0.0) for e in (events or [])]
    t0 = min(stamps) if stamps else 0.0
    trace_events: list[dict] = []
    pids = sorted({int(s.get("pid", 0)) for s in spans})
    for pid in pids:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for span in spans:
        trace_events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (span["t"] - t0) * 1e6,
                "dur": span["dur_s"] * 1e6,
                "pid": int(span.get("pid", 0)),
                "tid": int(span.get("tid", 0)),
                "args": {
                    "span_id": span.get("span_id"),
                    "parent_id": span.get("parent_id"),
                    **span.get("attrs", {}),
                },
            }
        )
    for event in events or []:
        trace_events.append(
            {
                "name": event.get("event", "event"),
                "cat": "repro.events",
                "ph": "i",
                "s": "p",  # process-scoped instant marker
                "ts": (event.get("t", t0) - t0) * 1e6,
                "pid": int(event.get("pid", 0)),
                "tid": 0,
                "args": {
                    k: v
                    for k, v in event.items()
                    if k not in ("t", "event", "schema")
                },
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "span_schema": SPAN_SCHEMA_VERSION},
    }


def export_chrome_trace(
    telemetry_dir: str | os.PathLike,
    out_path: str | os.PathLike | None = None,
    include_events: bool = True,
) -> Path:
    """Merge a telemetry directory's spans into one Chrome-trace file."""
    import json

    from repro.obs.events import read_events

    telemetry_dir = Path(telemetry_dir)
    spans = load_spans(telemetry_dir)
    if not spans:
        raise ValueError(
            f"no span records under {telemetry_dir} (expected "
            "spans-<pid>.jsonl files written by a --telemetry run)"
        )
    events = read_events(telemetry_dir) if include_events else None
    doc = to_chrome_trace(spans, events)
    out = Path(out_path) if out_path is not None else telemetry_dir / "trace.json"
    with open(out, "w") as handle:
        json.dump(doc, handle)
    return out
