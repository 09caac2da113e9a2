"""Event-driven trace simulator (CQSim re-implementation).

The paper evaluates every scheduler inside CQSim, a trace-based,
event-driven HPC scheduling simulator: jobs are imported from a trace,
the clock advances between events, and queue/system changes trigger
scheduling requests to the policy under test (§IV). This package
re-implements those semantics:

``events``
    Job-end events and a deterministic binary-heap event queue.
``episode``
    Snapshot/restore-able per-episode mutable state (pool, queue,
    events, running set).
``simulator``
    The engine: submit/end event processing, scheduler invocation,
    job start bookkeeping.
``metrics``
    Paper §IV-B metrics (node/BB utilization, average wait, average
    slowdown) and power metrics for §V-E.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.events": ["Event", "EventQueue"],
    "repro.sim.episode": ["EpisodeState"],
    "repro.sim.simulator": ["Simulator", "SimulationResult"],
    "repro.sim.metrics": ["MetricReport", "compute_metrics"],
})
