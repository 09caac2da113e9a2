"""The telemetry session: one enabled run's sinks, registry and probe.

A :class:`TelemetrySession` owns the three instrumentation surfaces —
the structured event log, the span recorder and the metrics registry —
rooted at one telemetry directory (or in memory when ``directory`` is
None). Sessions are installed globally through :func:`repro.obs.enable`
so instrumented library code reaches them via the zero-overhead
:mod:`repro.obs.runtime` attribute check.

Telemetry is "how", never "what": nothing in a session participates in
task config hashes, and nothing here consumes RNG or touches simulation
state, so decisions and metrics are bit-identical with a session
enabled or not (pinned by ``tests/integration/test_obs_identity.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs.events import JsonlSink, make_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.utils.durable import atomic_write

__all__ = ["TelemetrySession", "DecisionProbe", "DEFAULT_DECISION_SAMPLE"]

#: default sampling stride for decision-latency timing: one in every
#: ``N`` scheduler selections is wrapped in ``perf_counter`` calls
DEFAULT_DECISION_SAMPLE = 64


class DecisionProbe:
    """Sampled decision-latency timer for the scheduler selection loop.

    The loop asks :meth:`tick` once per selection (one method call — the
    only cost a telemetry-enabled run adds to unsampled decisions) and
    only wraps the ``select`` in timing when it returns True.
    """

    __slots__ = ("registry", "every", "_n")

    def __init__(self, registry: MetricsRegistry, every: int = DEFAULT_DECISION_SAMPLE):
        if every < 1:
            raise ValueError("decision sample stride must be >= 1")
        self.registry = registry
        self.every = int(every)
        self._n = 0

    def tick(self) -> bool:
        """Count one decision; True when this one should be timed."""
        self._n += 1
        return self._n % self.every == 0

    @property
    def decisions(self) -> int:
        return self._n

    def observe(self, scheduler_name: str, seconds: float) -> None:
        self.registry.histogram(f"sched.decision_us.{scheduler_name}").observe(
            seconds * 1e6
        )
        self.registry.counter("sched.decisions_sampled").inc()


class TelemetrySession:
    """Event log + spans + metrics for one enabled telemetry run."""

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        run_id: str | None = None,
        sample_decisions: bool = False,
        decision_sample_every: int = DEFAULT_DECISION_SAMPLE,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if not run_id:
            import uuid

            run_id = f"r-{uuid.uuid4().hex[:8]}"
        self.run_id = run_id
        self.events = JsonlSink(self.directory, "events")
        self.spans = SpanRecorder(self.directory)
        self.metrics = MetricsRegistry()
        self.decision_probe = (
            DecisionProbe(self.metrics, every=decision_sample_every)
            if sample_decisions
            else None
        )
        self.started_at = time.time()

    # -- surfaces ---------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Emit one structured event (bound context merged in)."""
        self.events.write(make_event(name, run_id=self.run_id, **fields))

    def span(self, name: str, **attrs):
        """Context manager timing one nested region."""
        return self.spans.span(name, **attrs)

    # -- metrics snapshots -------------------------------------------------

    def metrics_path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"metrics-{os.getpid()}.json"

    def write_metrics(self, **extra) -> Path | None:
        """Atomically persist this process's metrics snapshot."""
        path = self.metrics_path()
        if path is None:
            return None
        snapshot = self.metrics.snapshot(
            run_id=self.run_id, pid=os.getpid(), started_at=self.started_at, **extra
        )
        atomic_write(
            path, lambda handle: json.dump(snapshot, handle, sort_keys=True)
        )
        return path

    def close(self) -> None:
        """Flush everything; final metrics snapshot included."""
        self.write_metrics(closed=True)
        self.events.close()
        self.spans.close()
