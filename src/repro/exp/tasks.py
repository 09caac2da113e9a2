"""Task execution: the one function every runner mode goes through.

:func:`execute_task` is deliberately the *only* code path that turns an
:class:`ExperimentTask` into metrics — the serial loop and the process
pool both call it, so "parallel equals serial" holds by construction
rather than by careful bookkeeping. It is a pure function of the task:
every RNG stream inside derives from ``task.seed`` (via the library's
``SeedSequence``-based spawning), so re-running a task anywhere, in any
order, on any worker reproduces bit-identical metric values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time

from repro.exp.records import ExperimentTask, TaskResult
from repro.obs import runtime as _obs_runtime

__all__ = ["execute_task", "init_worker", "worker_context"]


def worker_context(start_method: str | None = None):
    """The multiprocessing context cell-executing processes start under
    (pool and queue workers alike): ``start_method`` when given, else
    "fork" where available (cheap, inherits the warm interpreter) and
    "spawn" elsewhere."""
    import multiprocessing

    if start_method is None:
        start_method = "fork" if sys.platform.startswith("linux") else "spawn"
    return multiprocessing.get_context(start_method)


def init_worker(modules: tuple[str, ...] = ()) -> None:
    """The start-up of every worker process (pool, supervised and
    ``repro work``): one BLAS thread
    (:func:`~repro.utils.blas.limit_blas_threads`), then the plugin
    registration ``modules`` re-imported, so a ``spawn`` child resolves
    ``@register_*``'d components (cached no-ops under ``fork``)."""
    from repro.api.registry import import_plugin_modules
    from repro.utils.blas import limit_blas_threads

    limit_blas_threads()
    import_plugin_modules(modules)


def execute_task(task: ExperimentTask) -> TaskResult:
    """Run one grid cell: build, (optionally) train, evaluate in order.

    Mirrors the serial harness flow exactly — one scheduler instance is
    created with the cell seed, trained once if requested, then replayed
    over ``task.workloads`` in order, so stateful policies (the GA's RNG
    stream, a trained agent) see the same history as a serial sweep.

    Each workload is one
    :meth:`Simulator.run <repro.sim.simulator.Simulator.run>`, without
    the utilization timeline: nothing in a cell reads it.
    """
    t0 = time.perf_counter()
    config = task.config
    if task.seed != config.seed:
        config = dataclasses.replace(config, seed=task.seed)

    task_key = task.key()
    # One cell span (build → train → evaluate) with the cell key bound
    # into every event/log record emitted inside — including those from
    # a pool worker, whose fork-aware sink files this span lands in.
    obs_session = _obs_runtime.session
    _cell_obs = contextlib.ExitStack()
    if obs_session is not None:
        from repro.obs.events import bind

        _cell_obs.enter_context(bind(key=task_key, method=task.method, seed=task.seed))
        _cell_obs.enter_context(
            obs_session.span(
                "cell",
                key=task_key,
                method=task.method,
                seed=task.seed,
                workloads=len(task.workloads),
                train=task.train,
            )
        )
    with _cell_obs:
        result = _execute_task_body(task, config, task_key, obs_session, t0)
    if obs_session is not None:
        obs_session.metrics.counter("cells.executed").inc()
        obs_session.metrics.histogram("cell.wall_s").observe(result.wall_time)
        # Persist this process's snapshot per cell: pool children have no
        # other flush point before the pool tears them down.
        obs_session.write_metrics()
    return result


def _execute_task_body(
    task: ExperimentTask,
    config,
    task_key: str,
    obs_session,
    t0: float,
) -> TaskResult:
    # Imported lazily: repro.experiments.harness imports the runner, and
    # worker processes should only pay for what the task touches.
    from repro.experiments.harness import make_method, prepare_base_trace, train_method
    from repro.sim.simulator import Simulator
    from repro.workload.suites import build_case_study_workload, build_workload, powered_system

    def workload_span(name: str):
        if obs_session is None:
            return contextlib.nullcontext()
        return obs_session.span("workload", workload=name)

    base = prepare_base_trace(config)
    system = config.system()
    # Every case-study workload extends the system identically (§V-E).
    eval_system = powered_system(system) if task.case_study else system

    sched = make_method(task.method, eval_system, config, **dict(task.extra))
    if task.train:
        with (
            obs_session.span("train", method=task.method)
            if obs_session is not None
            else contextlib.nullcontext()
        ):
            train_method(sched, eval_system, config)

    metrics = {}
    for workload in task.workloads:
        if task.case_study:
            jobs, _ = build_case_study_workload(workload, base, system, seed=config.seed)
        else:
            jobs = build_workload(workload, base, eval_system, seed=config.seed)
        with workload_span(workload):
            metrics[workload] = (
                Simulator(eval_system, sched, record_timeline=False).run(jobs).metrics
            )

    return TaskResult(
        key=task_key,
        method=task.method,
        seed=task.seed,
        workloads=task.workloads,
        metrics=metrics,
        wall_time=time.perf_counter() - t0,
        label=task.label,
    )
