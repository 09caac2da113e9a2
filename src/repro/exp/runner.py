"""The parallel experiment engine.

:class:`ExperimentRunner` fans a list of :class:`ExperimentTask` cells
out over a :class:`~concurrent.futures.ProcessPoolExecutor` (or runs
them inline with ``n_workers=1``), with three layers of reuse:

1. **Result cache** — an on-disk store keyed by the task's config hash;
   identical cells across runs (and across grids) are never recomputed.
2. **Checkpoint** — a JSONL journal of completed cells appended as the
   grid runs; re-invoking the same grid after an interruption restores
   finished cells and executes only the remainder.
3. **Deduplication** — identical cells inside one submission execute
   once and share the result.

Determinism: the serial and parallel paths call the same
:func:`~repro.exp.tasks.execute_task`, and every cell's randomness
derives from its own seed, so worker count and completion order cannot
change any metric value (``tests/integration/test_runner_determinism.py``
locks this down). Grid seeds are spawned per-cell from one root
``numpy.random.SeedSequence`` so seed streams are independent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exp.cache import ResultCache
from repro.exp.records import ExperimentTask, TaskResult
from repro.exp.tasks import execute_task, worker_context
from repro.obs import runtime as _obs_runtime
from repro.obs.progress import ProgressLine
from repro.utils.durable import OK, append_line, scan_sealed_jsonl

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentConfig

__all__ = ["ExperimentRunner", "grid_tasks", "spawn_grid_seeds", "pivot_results"]


def spawn_grid_seeds(root_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent per-cell seeds from one root seed.

    Children are spawned from a :class:`numpy.random.SeedSequence`, so
    the streams are statistically independent, reproducible, and stable
    under grid reordering (cell ``i`` always receives the same seed).
    """
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(c.generate_state(1, dtype=np.uint32)[0]) for c in children]


def grid_tasks(
    methods: Sequence[str],
    workloads: Sequence[str],
    config: "ExperimentConfig",
    seeds: Sequence[int] | None = None,
    n_seeds: int = 1,
    train: bool = False,
    case_study: bool = False,
) -> list[ExperimentTask]:
    """Build the (method × seed) cells of a grid, workloads rolled in.

    Each cell evaluates every workload in order with one scheduler
    instance (train-once / evaluate-many, matching the paper's setup of
    one trained agent scored on S1–S5). ``seeds`` fixes the seed axis
    explicitly; otherwise ``n_seeds`` independent seeds are spawned from
    ``config.seed`` (``n_seeds=1`` reuses ``config.seed`` itself so a
    plain comparison grid matches the serial harness bit-for-bit).

    This is also the compilation target of the declarative layer:
    :meth:`repro.api.scenario.Scenario.compile` emits exactly this cell
    ordering (seed-major, then method) with the same seed-spawning
    rules, so a scenario equivalent to a harness grid produces
    bit-identical tasks, metrics and cache keys.
    """
    if seeds is None:
        seeds = [config.seed] if n_seeds == 1 else spawn_grid_seeds(config.seed, n_seeds)
    return [
        ExperimentTask(
            method=method,
            workloads=tuple(workloads),
            seed=int(seed),
            config=config,
            train=train,
            case_study=case_study,
        )
        for seed in seeds
        for method in methods
    ]


def pivot_results(results) -> dict:
    """Pivot task results into ``{workload: {method: report}}``.

    The method axis uses each result's display name (its task label, or
    the method name); with a multi-seed grid it becomes
    ``"name@seed"`` so no cell is silently overwritten.
    """
    seeds = {r.seed for r in results}
    out: dict = {}
    claimed: dict[tuple[str, str], str] = {}
    for result in results:
        name = result.display_name
        label = name if len(seeds) == 1 else f"{name}@{result.seed}"
        for workload, report in result.metrics.items():
            prior = claimed.setdefault((workload, label), result.key)
            if prior != result.key:
                raise ValueError(
                    f"two distinct cells pivot to {label!r} on {workload!r}; "
                    "set ExperimentTask.label to disambiguate"
                )
            out.setdefault(workload, {})[label] = report
    return out


def _pool_worker_init(modules: tuple[str, ...]) -> None:
    """Pool initializer: one BLAS thread, then the plugin registrations."""
    from repro.api.registry import import_plugin_modules
    from repro.utils.blas import limit_blas_threads

    limit_blas_threads()
    import_plugin_modules(modules)


class ExperimentRunner:
    """Serial/parallel executor for experiment grids.

    Parameters
    ----------
    n_workers:
        Worker processes; ``1`` runs inline (no pool, no pickling) and
        ``None`` uses the machine's CPU count.
    cache_dir:
        Enable the on-disk result cache at this directory.
    checkpoint_path:
        Enable resumable checkpointing: completed cells are appended to
        this JSONL file as they finish, and a later run with the same
        path skips them.
    mp_start_method:
        Process start method; default "fork" where available (cheap,
        inherits the warm interpreter) and "spawn" elsewhere.
    queue_dir:
        Without it pending cells run inline or fan out over a local
        :class:`~concurrent.futures.ProcessPoolExecutor`; with it they
        are dispatched through the shared-directory work queue at
        ``queue_dir`` (:mod:`repro.dist`): ``n_workers`` local worker
        processes are started, external ``repro work --queue DIR``
        workers on any host sharing the directory may join or leave
        mid-grid, and crashed workers' cells are re-issued. Reusing the
        directory resumes a half-finished grid — published cells are
        never re-executed. Pure execution choice — metrics, cache keys
        and checkpoints are bit-identical to the pool and serial paths.
        The read-only :attr:`dispatch` property (``"pool"`` |
        ``"queue"``) names the path taken, for telemetry.
    lease_ttl:
        Queue-mode lease expiry in seconds; a worker silent for this
        long forfeits its cell to re-issue.
    cell_timeout_s:
        Queue-mode per-cell execution deadline: a cell still running
        after this many seconds is abandoned by its worker's watchdog,
        recorded as a failed attempt (toward the re-issue budget) and
        its lease released. None (default) disables the watchdog.
    supervise:
        Queue mode only: respawn crashed local workers (exponential
        backoff, crash-loop circuit breaker) instead of leaving their
        slots empty. Either way a crashed worker's held cell takes a
        failure strike and is released at once.
    progress:
        Live one-line stderr progress (done/total cells, recalled
        count, elapsed/ETA) for the serial and pool paths. ``None``
        (default) auto-enables only when stderr is a TTY, so piped
        runs, CI logs and ``--json`` output stay clean; ``True``/
        ``False`` force it. Purely cosmetic — never touches results.
    """

    def __init__(
        self,
        n_workers: int | None = 1,
        cache_dir: str | os.PathLike | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        mp_start_method: str | None = None,
        queue_dir: str | os.PathLike | None = None,
        lease_ttl: float = 30.0,
        cell_timeout_s: float | None = None,
        supervise: bool = False,
        progress: bool | None = None,
    ) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.lease_ttl = float(lease_ttl)
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError(
                f"cell_timeout_s must be positive or None, got {cell_timeout_s!r}"
            )
        self.cell_timeout_s = (
            float(cell_timeout_s) if cell_timeout_s is not None else None
        )
        self.supervise = bool(supervise)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.mp_start_method = mp_start_method
        self.progress = progress
        #: keys already present in the journal during the current run()
        self._journaled_keys: set[str] = set()
        self._progress_line: ProgressLine | None = None
        self._recalled = 0

    @property
    def dispatch(self) -> str:
        """``"queue"`` when a ``queue_dir`` was given, else ``"pool"``."""
        return "queue" if self.queue_dir is not None else "pool"

    # -- checkpointing ----------------------------------------------------

    def _load_checkpoint(self) -> dict[str, TaskResult]:
        """Completed cells of an earlier run of this journal.

        Lines are CRC-sealed (unsealed lines of older journals still
        load); anything the shared reader does not judge OK — the torn
        tail of an interrupted run, a corrupt or wrong-shape line — is
        skipped, so its cell simply re-executes. The file is never
        rewritten: the next append starts on a fresh line regardless.
        """
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return {}
        done: dict[str, TaskResult] = {}
        text = self.checkpoint_path.read_text()
        for line in scan_sealed_jsonl(text, TaskResult.decode):
            if line.verdict == OK:
                line.value.source = "checkpoint"
                done[line.value.key] = line.value
        return done

    def _append_checkpoint(self, result: TaskResult) -> None:
        if self.checkpoint_path is None:
            return
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        # fsynced (file, and directory on first create) so a torn tail
        # is a last resort, not the common case of an interrupted run.
        append_line(self.checkpoint_path, result.to_sealed_line())

    # -- execution --------------------------------------------------------

    def run(self, tasks: list[ExperimentTask]) -> list[TaskResult]:
        """Execute ``tasks``; returns results aligned with input order."""
        keys = [task.key() for task in tasks]
        key_set = set(keys)
        journaled = self._load_checkpoint()
        self._journaled_keys = set(journaled)
        resolved = {k: v for k, v in journaled.items() if k in key_set}
        session = _obs_runtime.session
        if session is not None:
            session.event(
                "run_start",
                cells=len(key_set),
                journaled=len(resolved),
                dispatch=self.dispatch,
                workers=self.n_workers,
            )
            session.metrics.gauge("runner.cells_total").set(len(key_set))
            session.metrics.counter("runner.checkpoint_hits").inc(len(resolved))
        self._progress_line = ProgressLine(len(key_set), enabled=self.progress)
        self._recalled = len(resolved)
        self._progress_line.update(len(resolved), recalled=self._recalled)
        try:
            if self.cache is not None:
                for key in keys:
                    if key not in resolved:
                        hit = self.cache.get(key)
                        if hit is not None:
                            self._record(resolved, hit)

            pending: dict[str, ExperimentTask] = {}
            for task, key in zip(tasks, keys):
                if key not in resolved and key not in pending:
                    pending[key] = task

            if pending:
                with (
                    session.span("run", cells=len(pending), dispatch=self.dispatch)
                    if session is not None
                    else contextlib.nullcontext()
                ):
                    if self.dispatch == "queue":
                        self._run_queue(pending, resolved)
                    elif self.n_workers == 1 or len(pending) == 1:
                        for task in pending.values():
                            self._record(resolved, execute_task(task))
                    else:
                        self._run_pool(pending, resolved)
        finally:
            line, self._progress_line = self._progress_line, None
            line.close()
        if session is not None:
            session.event(
                "run_done",
                cells=len(key_set),
                recalled=self._recalled,
                executed=len(key_set) - self._recalled,
            )
            session.write_metrics()

        # Backfill checkpoint-restored cells into the cache so the two
        # recall layers stay symmetric: every resolved cell ends up in
        # both the journal and (when enabled) the cache.
        if self.cache is not None:
            for key in key_set:
                if resolved[key].source == "checkpoint" and key not in self.cache:
                    self.cache.put(resolved[key])
        # Labels are display provenance, not part of the key — restamp
        # each recalled/shared result with the requesting task's label.
        out = []
        for task, key in zip(tasks, keys):
            result = resolved[key]
            if result.label != task.label:
                result = dataclasses.replace(result, label=task.label)
            out.append(result)
        return out

    def _record(self, resolved: dict[str, TaskResult], result: TaskResult) -> None:
        """Resolve a live or cache-recalled result: journal + cache it."""
        resolved[result.key] = result
        if result.key not in self._journaled_keys:
            self._append_checkpoint(result)
            self._journaled_keys.add(result.key)
        if self.cache is not None and result.source == "run":
            self.cache.put(result)
        if result.source != "run":
            self._recalled += 1
        if self._progress_line is not None:
            self._progress_line.update(len(resolved), recalled=self._recalled)
        session = _obs_runtime.session
        if session is not None:
            counter = {
                "cache": "runner.cache_hits",
                "checkpoint": "runner.checkpoint_hits",
            }.get(result.source, "runner.cells_run")
            session.metrics.counter(counter).inc()
            session.event(
                "cell_done",
                key=result.key,
                method=result.method,
                seed=result.seed,
                source=result.source,
                wall_s=result.wall_time,
            )

    def _run_pool(
        self,
        pending: dict[str, ExperimentTask],
        resolved: dict[str, TaskResult],
    ) -> None:
        # The pool initializer limits each worker to one BLAS thread and
        # ships the plugin registration modules: fork workers inherit
        # runtime registrations anyway (re-import is a cached no-op),
        # spawn workers start from a fresh interpreter and would
        # otherwise fail to resolve any @register_*'d component (the
        # registry-module note).
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.api.registry import registration_modules

        context = worker_context(self.mp_start_method)
        workers = min(self.n_workers, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_pool_worker_init,
            initargs=(registration_modules(),),
        ) as pool:
            futures = {
                pool.submit(execute_task, task): key
                for key, task in pending.items()
            }
            # Drain as results land so the checkpoint journal always
            # reflects real progress, even if a later cell crashes.
            waiting = set(futures)
            lost: list[str] = []
            while waiting:
                finished, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # A dead worker fails every unfinished future;
                        # keep draining so the ones that did finish are
                        # still recorded before we report.
                        lost.append(futures[future])
                    else:
                        self._record(resolved, result)
            if lost:
                raise RuntimeError(
                    f"a pool worker process died (killed, out of memory, "
                    f"or os._exit) with {len(lost)} cell(s) in flight: "
                    f"{sorted(lost)}. Every cell that finished is recorded "
                    f"— the checkpoint journal and result cache are intact "
                    f"— so re-running the same grid executes only these."
                )

    def _run_queue(
        self,
        pending: dict[str, ExperimentTask],
        resolved: dict[str, TaskResult],
    ) -> None:
        """Dispatch pending cells through the shared-directory queue.

        The cache/checkpoint recall layers above are untouched: only
        genuinely pending cells are enqueued, and every published result
        flows back through :meth:`_record`, so the coordinator's journal
        and cache end up identical to a pool run's.
        """
        from repro.dist.coordinator import dispatch_tasks

        results = dispatch_tasks(
            self.queue_dir,
            list(pending.values()),
            n_workers=self.n_workers,
            lease_ttl=self.lease_ttl,
            mp_start_method=self.mp_start_method,
            cell_timeout_s=self.cell_timeout_s,
            supervise=self.supervise,
        )
        for key in pending:
            self._record(resolved, results[key])
