"""Task execution: the one function every runner mode goes through.

:func:`execute_task` is deliberately the *only* code path that turns an
:class:`ExperimentTask` into metrics — the inline loop and every queue
worker call it, so "parallel equals serial" holds by construction
rather than by careful bookkeeping. It is a pure function of the task:
every RNG stream inside derives from ``task.seed`` (via the library's
``SeedSequence``-based spawning), so re-running a task anywhere, in any
order, on any worker reproduces bit-identical metric values. Its body,
:func:`replay_cell`, is also what :func:`repro.api.run_single` replays,
so a single inspected run is the same cell a grid runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.exp.records import ExperimentTask, TaskResult
from repro.obs import runtime as _obs_runtime

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig
    from repro.sched.base import Scheduler
    from repro.sim.simulator import SimulationResult

__all__ = ["execute_task", "init_worker", "replay_cell", "worker_context"]


def worker_context(start_method: str | None = None, tasks: Iterable[ExperimentTask] = ()):
    """The multiprocessing context the queue's local workers start
    under: ``start_method`` when given, else "fork" where available
    (cheap, inherits the warm interpreter) and "spawn" elsewhere.

    Under "fork" it first imports what a worker and its cells run, so
    that every child inherits those modules instead of compiling its
    own (compiling a scenario loaded none of them): :func:`init_worker`'s
    :mod:`repro.utils.blas` (``ctypes``), :mod:`repro.experiments.harness`
    and :mod:`repro.sim.simulator` (NumPy with them), ``numpy.random``
    and the Darshan trace builder :mod:`repro.workload.darshan`; then,
    for each method among ``tasks``, the modules its registered factory
    imports when called (a builtin's scheduler class, so a grid of
    heuristic cells loads no :mod:`repro.nn`), and
    :mod:`repro.core.training` when such a cell trains a trainable
    method. Nothing is built; a method that is unknown or fails to
    import is left to its cells, which report it."""
    import multiprocessing

    if start_method is None:
        start_method = "fork" if sys.platform.startswith("linux") else "spawn"
    if start_method == "fork":
        import importlib

        import numpy.random  # noqa: F401

        import repro.experiments.harness  # noqa: F401
        import repro.sim.simulator  # noqa: F401
        import repro.utils.blas  # noqa: F401
        import repro.workload.darshan  # noqa: F401
        from repro.api.registry import SCHEDULERS

        for method, train in {(task.method, task.train) for task in tasks}:
            with contextlib.suppress(KeyError, ImportError):
                entry = SCHEDULERS.get(method)
                for module in _imported_when_called(entry.factory):
                    importlib.import_module(module)
                if train and entry.trainable:
                    import repro.core.training  # noqa: F401
    return multiprocessing.get_context(start_method)


def _imported_when_called(factory) -> list[str]:
    """The absolute imports in a factory function's own body: a builtin
    imports its scheduler class there, so listing names stays cheap."""
    import dis

    code = getattr(factory, "__code__", None)
    if code is None:  # a class: its module is imported already
        return []
    steps = list(dis.get_instructions(code))
    # ``import m`` / ``from m import x`` push the level, the names, then
    # IMPORT_NAME; level 0 is an absolute import.
    return [
        step.argval for level, step in zip(steps, steps[2:])
        if step.opname == "IMPORT_NAME" and level.argval == 0
    ]


def init_worker(modules: tuple[str, ...] = ()) -> None:
    """The start-up of every worker process (supervised and
    ``repro work``): one BLAS thread
    (:func:`~repro.utils.blas.limit_blas_threads`), then the plugin
    registration ``modules`` re-imported, so a ``spawn`` child resolves
    ``@register_*``'d components (cached no-ops under ``fork``)."""
    from repro.api.registry import import_plugin_modules
    from repro.utils.blas import limit_blas_threads

    limit_blas_threads()
    import_plugin_modules(modules)


def execute_task(task: ExperimentTask) -> TaskResult:
    """Run one grid cell (:func:`replay_cell`) and keep its metrics.

    Each workload replays without the Eq. 1 goal log: nothing in a cell
    reads it.
    """
    t0 = time.perf_counter()
    config = task.config
    if task.seed != config.seed:
        config = dataclasses.replace(config, seed=task.seed)

    task_key = task.key()
    # One cell span (build → train → evaluate) with the cell key bound
    # into every event/log record emitted inside — including those from
    # a queue worker, whose fork-aware sink files this span lands in.
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
        _, replays = replay_cell(
            task.method,
            task.workloads,
            config,
            train=task.train,
            case_study=task.case_study,
            extra=dict(task.extra),
        )
        metrics = {workload: replay.metrics for workload, replay in replays}
    result = TaskResult(
        key=task_key,
        method=task.method,
        seed=task.seed,
        workloads=task.workloads,
        metrics=metrics,
        wall_time=time.perf_counter() - t0,
        label=task.label,
    )
    if obs_session is not None:
        obs_session.metrics.counter("cells.executed").inc()
        obs_session.metrics.histogram("cell.wall_s").observe(result.wall_time)
        # Persist this process's snapshot per cell: a worker may be
        # killed with no other flush point.
        obs_session.write_metrics()
    return result


def replay_cell(
    method: str,
    workloads: tuple[str, ...],
    config: ExperimentConfig,
    *,
    train: bool,
    case_study: bool,
    extra: Mapping,
    record_timeline: bool = False,
) -> tuple[Scheduler, Iterator[tuple[str, SimulationResult]]]:
    """The one cell pipeline: build, (optionally) train, replay in order.

    Builds the base trace and the system (power-extended for a case
    study, §V-E), then one scheduler with the config seed and ``extra``
    constructor kwargs, curriculum-trained once if ``train`` — so
    stateful policies (the GA's RNG stream, a trained agent) see the
    same history as a serial sweep. Returns the scheduler and a lazy
    iterator of ``(workload, SimulationResult)``: each workload is one
    :meth:`Simulator.run <repro.sim.simulator.Simulator.run>`, made when
    the iterator reaches it, so a caller that keeps only the metrics
    holds one replay at a time. ``record_timeline`` makes a policy that
    keeps the Eq. 1 goal log (``goal_series()``) log the goal at every
    instance; off, it refreshes the goal only where a decision reads it.
    """
    # Imported at call time: these are the execution layer (NumPy with
    # it), which compiling a scenario never loads, and the end-to-end
    # tracer wraps these module attributes.
    from repro.experiments.harness import make_method, prepare_base_trace, train_method
    from repro.sim.simulator import Simulator
    from repro.workload.suites import build_case_study_workload, build_workload, powered_system

    obs_session = _obs_runtime.session

    def span(name: str, **attrs):
        if obs_session is None:
            return contextlib.nullcontext()
        return obs_session.span(name, **attrs)

    base = prepare_base_trace(config)
    system = config.system()
    # Every case-study workload extends the system identically (§V-E).
    eval_system = powered_system(system) if case_study else system

    sched = make_method(method, eval_system, config, **extra)
    if train:
        with span("train", method=method):
            train_method(sched, eval_system, config)

    def replays() -> Iterator[tuple[str, SimulationResult]]:
        for workload in workloads:
            if case_study:
                jobs, _ = build_case_study_workload(workload, base, system, seed=config.seed)
            else:
                jobs = build_workload(workload, base, eval_system, seed=config.seed)
            with span("workload", workload=workload):
                result = Simulator(
                    eval_system, sched, record_timeline=record_timeline
                ).run(jobs)
            yield workload, result

    return sched, replays()
