"""``repro.obs`` — structured telemetry: events, spans, metrics, logs.

Zero-overhead-when-off instrumentation for the whole stack::

    import repro.obs as obs

    session = obs.enable("telemetry/")        # JSONL events + spans + metrics
    with obs.bind(run_id=session.run_id):
        with obs.span("run", cells=40):
            ...
            obs.event("cell_done", key=key, source="run")
    obs.disable()                             # flush + final metrics snapshot

Three surfaces share one telemetry directory:

* **events** — flat, versioned JSONL records with bound run/worker/cell
  context (:mod:`repro.obs.events`), fed both directly and through the
  stdlib logging bridge (:mod:`repro.obs.logbridge`);
* **spans** — nested timed regions (run → cell → episode), exportable
  as a Chrome-trace/Perfetto file via ``repro trace export``
  (:mod:`repro.obs.spans`);
* **metrics** — constant-memory counters/gauges/streaming histograms
  (:mod:`repro.obs.metrics`), snapshotted to ``metrics-<pid>.json``.

Hot loops never touch this facade: they read
:data:`repro.obs.runtime.session` / ``decision_probe`` (module
attributes that stay ``None`` while telemetry is off) so the disabled
path costs one attribute check. Telemetry is execution-layer "how" —
it never enters task config hashes and never changes a decision.
"""

from __future__ import annotations

import contextlib
import os

from repro._lazy import lazy_exports
from repro.obs import runtime as _runtime

# Imported before the facade functions ``metrics()`` and ``session()``
# below: a submodule imported later would rebind the package attribute
# of the same name to the module.
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import DEFAULT_DECISION_SAMPLE, TelemetrySession

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.events": ["bind", "current_context", "read_events", "EVENT_SCHEMA_VERSION"],
    "repro.obs.logbridge": [
        "get_logger", "kv", "configure_stderr_logging", "verbosity_level", "EventLogHandler",
    ],
    "repro.obs.spans": [
        "load_spans", "to_chrome_trace", "export_chrome_trace", "SPAN_SCHEMA_VERSION",
    ],
    "repro.obs.metrics": ["merge_snapshots", "StreamingHistogram", "METRICS_SCHEMA_VERSION"],
    "repro.obs.progress": ["ProgressLine"],
    "repro.obs.session": ["DecisionProbe"],
})
__all__ = [
    "enable", "disable", "enabled", "session", "event", "span", "metrics",
    "TelemetrySession", "MetricsRegistry", "DEFAULT_DECISION_SAMPLE", *__all__,
]

_log_handler = None  # the EventLogHandler installed while enabled


def enable(
    directory: "str | os.PathLike | None" = None,
    *,
    run_id: str | None = None,
    sample_decisions: bool = False,
    decision_sample_every: int = DEFAULT_DECISION_SAMPLE,
) -> TelemetrySession:
    """Install a global telemetry session; returns it.

    ``directory`` roots the JSONL sinks (``None`` keeps records in
    memory — tests, or metrics-only use). ``sample_decisions`` arms the
    scheduler decision-latency probe (off by default: it is the one
    surface on the per-decision hot path), timing every
    ``decision_sample_every``-th selection.

    Idempotent while enabled: a second ``enable`` returns the existing
    session unchanged (call :func:`disable` first to reconfigure), so a
    worker following a queue's shared telemetry directory can race a
    CLI flag without stacking sessions.
    """
    global _log_handler
    if _runtime.session is not None:
        return _runtime.session
    from repro.obs.logbridge import EventLogHandler

    session_ = TelemetrySession(
        directory,
        run_id=run_id,
        sample_decisions=sample_decisions,
        decision_sample_every=decision_sample_every,
    )
    _log_handler = EventLogHandler(session_)
    _log_handler.install()
    _runtime.session = session_
    _runtime.decision_probe = session_.decision_probe
    return session_


def disable() -> None:
    """Tear the active session down (flush sinks, final snapshot)."""
    global _log_handler
    session_, _runtime.session = _runtime.session, None
    _runtime.decision_probe = None
    if _log_handler is not None:
        _log_handler.uninstall()
        _log_handler = None
    if session_ is not None:
        session_.close()


def enabled() -> bool:
    return _runtime.session is not None


def session() -> TelemetrySession | None:
    """The active session, or None."""
    return _runtime.session


def event(name: str, **fields) -> None:
    """Emit a structured event (no-op while telemetry is off)."""
    session_ = _runtime.session
    if session_ is not None:
        session_.event(name, **fields)


_NULL_SPAN = contextlib.nullcontext()


def span(name: str, **attrs):
    """A timed-region context manager (null context while off)."""
    session_ = _runtime.session
    if session_ is None:
        return _NULL_SPAN
    return session_.span(name, **attrs)


def metrics() -> MetricsRegistry | None:
    """The active session's metrics registry, or None."""
    session_ = _runtime.session
    return session_.metrics if session_ is not None else None
