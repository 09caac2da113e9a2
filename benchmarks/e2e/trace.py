"""Outside-in layer tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this file. :func:`install` replaces
the public functions at each layer boundary with timing wrappers — each
name patched where it is looked up (class attributes, and module
globals such as ``repro.experiments.harness.build_workload``) — and
:func:`uninstall` puts the original objects back, so the untimed runs
execute the program exactly as shipped.

Two kinds of record:

* **coarse spans** (a run, a cell, training, ``Simulator.run``,
  ``train_epoch``, the queue phases) are kept one by one with name,
  start, end, parent and run id, and written to ``trace-<workload>.json``;
* **hot calls** (select, encode, score, pool operations, network
  forward/backward, optimiser step) only aggregate: calls, total time,
  self time, and a fixed-size sample of durations for percentiles.

A layer's *self* time is its calls' duration minus the part covered by
traced calls made from inside them. Every traced call has exactly one
parent (the innermost open one), so the self times of everything under
a root span sum to that span's duration by construction; the root's own
self time is what no wrapper claimed (``trace.unattributed_share``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter

#: durations kept per sampled name; beyond it every other one is dropped
#: and the stride doubles, so the sample stays evenly spread over the run
SAMPLE_CAP = 4096


class DurationSample:
    """Fixed-size, evenly strided sample of a stream of durations."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.seen = 0
        self._stride = 1

    def add(self, value: float) -> None:
        if self.seen % self._stride == 0:
            self.values.append(value)
            if len(self.values) >= SAMPLE_CAP:
                self.values = self.values[::2]
                self._stride *= 2
        self.seen += 1

    def percentile(self, pct: int) -> float:
        """``pct``-th percentile, or 0.0 with fewer than ten samples
        beyond it (a p99 needs 1,000)."""
        if len(self.values) * (100 - pct) < 1000:
            return 0.0
        return statistics.quantiles(self.values, n=100)[pct - 1]


class Tracer:
    """The stack of open traced calls plus the per-name aggregates.

    Only the thread that created the tracer is traced: the queue
    worker's lease heartbeat runs the same wrapped ``Store`` methods on
    its own thread, and a second thread pushing onto the one call stack
    would mis-parent every frame. Other threads call straight through.
    """

    def __init__(self) -> None:
        self._thread = get_ident()
        self._stack: list[list[float]] = []  # one [child seconds] per open call
        self._open_spans: list[int] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        self.samples: dict[str, DurationSample] = {}
        self.spans: list[dict] = []
        #: sums and last-values fed by the ``after`` hooks
        self.values: dict[str, float] = {}
        self.run_id = 0

    def wrap(self, name: str, fn, *, coarse=False, sample=False, after=None):
        """``fn`` timed under ``name``; ``after(args, result)`` runs untimed
        by this frame (its cost lands in the caller's self time)."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        sampler = self.samples.setdefault(name, DurationSample()) if sample else None
        stack, spans, open_spans = self._stack, self.spans, self._open_spans
        thread = self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0]
            stack.append(frame)
            if coarse:
                span = {
                    "name": name,
                    "run": self.run_id,
                    "parent": open_spans[-1] if open_spans else None,
                }
                open_spans.append(len(spans))
                spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if sampler is not None:
                    sampler.add(elapsed)
                if coarse:
                    open_spans.pop()
                    span["start"] = start
                    span["end"] = start + elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def add(self, name: str, seconds: float) -> None:
        """Account a stage timed by hand (``import repro.api`` in a fresh
        interpreter, which no wrapper can be installed around)."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds

    def bump(self, key: str, amount: float = 1.0) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def calls(self, *names: str) -> int:
        return int(sum(self.stats[n][0] for n in names if n in self.stats))

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def dump(self, path, **meta) -> None:
        """Write the coarse spans and the aggregates to ``path``."""
        doc = {
            **meta,
            "spans": self.spans,
            "aggregates": {
                name: {"calls": int(calls), "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.stats.items())
                if calls
            },
            "values": self.values,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1)


# -- the layer map ------------------------------------------------------------

_POOL_OPS = ("allocate", "release", "can_fit", "earliest_fit_time", "free_units_at")
_STORE_OPS = (
    "read_text", "read_json", "stat_mtime", "atomic_write_json",
    "atomic_write_text", "fsync_append", "create_excl_json", "replace",
    "rename", "unlink",
)

#: ``(module, class or None, attribute, traced name, kind)``. Kind says
#: what is kept besides the aggregate: "span" each call individually,
#: "sampled" a duration sample, "hot" nothing. A function imported by name
#: into a second module is listed once per module that calls it.
_TARGETS = (
    ("repro.exp.runner", "ExperimentRunner", "run", "exp.run", "span"),
    ("repro.exp.runner", None, "execute_task", "exp.cell", "span sampled"),
    ("repro.dist.worker", None, "execute_task", "exp.cell", "span sampled"),
    ("repro.experiments.harness", None, "train_method", "exp.train", "span"),
    ("repro.experiments.harness", None, "prepare_base_trace", "workload.trace_build", "hot"),
    ("repro.experiments.harness", None, "build_workload", "workload.trace_build", "hot"),
    ("repro.experiments.harness", None, "build_curriculum", "workload.trace_build", "hot"),
    ("repro.workload.suites", None, "build_workload", "workload.trace_build", "hot"),
    ("repro.sim.simulator", "Simulator", "run", "sim.run", "span"),
    ("repro.sched.base", "Scheduler", "schedule", "sched.schedule", "hot"),
    ("repro.sched.base", "WindowPolicyScheduler", "select", "sched.select", "sampled"),
    ("repro.core.mrsch", "MRSchScheduler", "select", "sched.select", "sampled"),
    *(("repro.cluster.resources", "ResourcePool", op, "cluster.pool", "hot")
      for op in _POOL_OPS),
    ("repro.core.encoding", "StateEncoder", "encode", "core.encode", "hot"),
    ("repro.core.encoding", "IncrementalStateEncoder", "encode_decision", "core.encode", "hot"),
    ("repro.core.dfp", "DFPAgent", "action_scores", "core.score", "hot"),
    ("repro.core.dfp", "DFPAgent", "action_scores_batch", "core.score", "hot"),
    ("repro.core.dfp", "DFPAgent", "train_epoch", "core.train_epoch", "span"),
    ("repro.core.dfp", "DFPAgent", "train_batch", "core.train_batch", "hot"),
    ("repro.core.dfp", "DFPAgent", "record_episode", "core.record_episode", "hot"),
    ("repro.core.dfp", "DFPNetwork", "forward", "nn.forward", "hot"),
    ("repro.core.dfp", "DFPNetwork", "forward_scores", "nn.forward", "hot"),
    ("repro.core.dfp", "DFPNetwork", "forward_infer", "nn.forward", "hot"),
    ("repro.core.dfp", "DFPNetwork", "backward", "nn.backward", "hot"),
    ("repro.nn.optim", "Optimizer", "step", "nn.optim", "hot"),
    ("repro.nn.optim", "Adam", "step", "nn.optim", "hot"),
    ("repro.nn.optim", "Optimizer", "clip_gradients", "nn.optim", "hot"),
    *(("repro.dist.store", "Store", op, "dist.store", "hot") for op in _STORE_OPS),
)


def _jobs_in(built) -> int:
    """Jobs in a built trace: a job list, or a curriculum of job sets."""
    if isinstance(built, dict):
        return sum(len(jobset) for sets in built.values() for jobset in sets)
    return len(built)


def _train_flops_per_row(network) -> float:
    """Forward + backward floating-point operations per training sample,
    *computed* from the Dense layer shapes (2·in·out forward, twice that
    backward for the weight and the input gradient), not measured."""

    def weights(stream) -> int:
        return sum(layer.params["W"].size for layer in stream.layers if "W" in layer.params)

    config = network.config
    head_rows = config.n_actions if config.action_stream == "shared" else 1
    per_row = (
        weights(network.state_net)
        + weights(network.meas_net)
        + weights(network.goal_net)
        + weights(network.expectation_stream)
        + head_rows * weights(network.action_stream)
    )
    return 6.0 * per_row


def install(tracer: Tracer, on_simulation=None) -> list:
    """Patch every target; returns the undo list for :func:`uninstall`.

    ``on_simulation(jobs, result)`` receives each ``Simulator.run`` input
    and :class:`SimulationResult` (the per-job invariant check).
    """
    def after_build(args, result):
        tracer.bump("workload.jobs_built", _jobs_in(result))

    def after_simulation(args, result):
        tracer.bump("sim.instances", result.n_scheduling_instances)
        tracer.bump("sim.jobs", len(result.jobs))
        if on_simulation is not None:
            on_simulation(args[1], result)

    def after_agent_call(args, result):
        if "nn.param_count" not in tracer.values:
            tracer.values["nn.param_count"] = args[0].network.parameter_count()

    def after_train_epoch(args, result):
        after_agent_call(args, result)
        tracer.values["core.final_loss"] = float(result)

    def after_train_batch(args, result):
        agent = args[0]
        rows = min(agent.config.batch_size, len(agent.replay))
        tracer.bump("nn.train_flops_computed", rows * _train_flops_per_row(agent.network))

    hooks = {
        "workload.trace_build": after_build,
        "sim.run": after_simulation,
        "core.score": after_agent_call,
        "core.train_epoch": after_train_epoch,
        "core.train_batch": after_train_batch,
    }
    undo = []
    for module_name, class_name, attr, name, kind in _TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = vars(owner)[attr]
        setattr(owner, attr, tracer.wrap(
            name, original,
            coarse="span" in kind,
            sample="sampled" in kind,
            after=hooks.get(name),
        ))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    """Put every original object back (``Simulator.run is`` the original)."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def tracing(on_simulation=None):
    """A fresh :class:`Tracer` with the wrappers installed for the block."""
    tracer = Tracer()
    undo = install(tracer, on_simulation)
    try:
        yield tracer
    finally:
        uninstall(undo)


def layer_metrics(tracer: Tracer, runs: int) -> dict[str, float]:
    """Per-layer metrics of the traced runs, per run: sums divided by
    ``runs``. The runs replay identical inputs, so every count comes out
    whole except the queue's store operations, which depend on timing."""
    t = tracer
    root_total = t.total_s("run")
    cells = t.calls("exp.cell")
    instances = t.values.get("sim.instances", 0.0)
    backward_s = t.self_s("nn.backward")
    flops = t.values.get("nn.train_flops_computed", 0.0)
    select = t.samples.get("sched.select")
    cell = t.samples.get("exp.cell")
    # the drain minus the cells it executed: claim, spec read, publish, done marker
    drain_s = t.total_s("dist.drain") - (
        t.total_s("exp.cell") if t.calls("dist.drain") else 0.0
    )
    per_run = {
        "workload.trace_build_s": t.self_s("workload.trace_build"),
        "workload.trace_build_calls": t.calls("workload.trace_build"),
        "workload.jobs_built": t.values.get("workload.jobs_built", 0.0),
        "sim.run_s": t.self_s("sim.run"),
        "sim.run_calls": t.calls("sim.run"),
        "sim.instances": instances,
        "sim.jobs": t.values.get("sim.jobs", 0.0),
        "sched.schedule_s": t.self_s("sched.schedule"),
        "sched.select_s": t.self_s("sched.select"),
        "sched.select_calls": t.calls("sched.select"),
        "cluster.pool_s": t.self_s("cluster.pool"),
        "cluster.pool_calls": t.calls("cluster.pool"),
        "core.encode_s": t.self_s("core.encode"),
        "core.encode_calls": t.calls("core.encode"),
        "core.score_s": t.self_s("core.score"),
        "core.score_calls": t.calls("core.score"),
        "core.train_epoch_s": t.self_s("core.train_epoch", "core.train_batch"),
        "core.train_batches": t.calls("core.train_batch"),
        "core.record_episode_s": t.self_s("core.record_episode"),
        "nn.forward_s": t.self_s("nn.forward"),
        "nn.forward_calls": t.calls("nn.forward"),
        "nn.backward_s": backward_s,
        "nn.optim_s": t.self_s("nn.optim"),
        "nn.train_flops_computed": flops,
        "exp.run_s": t.self_s("exp.run", "exp.cell", "exp.train"),
        "exp.cells": cells,
        "dist.enqueue_s": t.total_s("dist.enqueue"),
        "dist.drain_s": drain_s,
        "dist.merge_s": t.total_s("dist.merge"),
        "dist.store_ops": t.calls("dist.store"),
    }
    metrics = {name: value / runs for name, value in per_run.items()}
    metrics.update({
        "sim.us_per_instance": 1e6 * t.self_s("sim.run") / instances if instances else 0.0,
        "sched.select_p50_us": 1e6 * select.percentile(50) if select else 0.0,
        "sched.select_p99_us": 1e6 * select.percentile(99) if select else 0.0,
        "core.final_loss": t.values.get("core.final_loss", 0.0),
        "nn.param_count": t.values.get("nn.param_count", 0.0),
        # two thirds of the computed training operations are the backward pass
        "nn.backward_gflops_per_s": (
            flops * (4.0 / 6.0) / backward_s / 1e9 if backward_s else 0.0
        ),
        "exp.cell_p50_ms": 1e3 * statistics.median(cell.values) if cell and cell.values else 0.0,
        "dist.coord_ms_per_cell": (
            1e3 * (t.total_s("dist.enqueue", "dist.merge") + drain_s) / cells
            if cells else 0.0
        ),
        "trace.unattributed_share": t.self_s("run") / root_total if root_total else 0.0,
    })
    return metrics
