"""The experiment engine.

:class:`ExperimentRunner` runs a list of :class:`ExperimentTask` cells
inline (one worker, or one pending cell) or through the crash-safe
shared-directory work queue (:mod:`repro.dist`): in the caller's
``queue_dir``, or else in a private temporary directory removed once
the grid is done. Three layers of reuse sit in front of execution:

1. **Result cache** — an on-disk store keyed by the task's config hash;
   identical cells across runs (and across grids) are never recomputed.
2. **Checkpoint** — a JSONL journal of completed cells appended as the
   grid runs; re-invoking the same grid after an interruption restores
   finished cells and executes only the remainder.
3. **Deduplication** — identical cells inside one submission execute
   once and share the result.

Determinism: the inline and queue paths call the same
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

from repro.exp.cache import ResultCache
from repro.exp.records import ExperimentTask, TaskResult
from repro.exp.tasks import execute_task
from repro.obs import runtime as _obs_runtime
from repro.obs.progress import ProgressLine
from repro.utils.durable import OK, append_line, scan_sealed_jsonl

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

__all__ = ["ExperimentRunner", "grid_tasks", "spawn_grid_seeds", "pivot_results"]


def spawn_grid_seeds(root_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent per-cell seeds from one root seed.

    Children are spawned from a :class:`numpy.random.SeedSequence`, so
    the streams are statistically independent, reproducible, and stable
    under grid reordering (cell ``i`` always receives the same seed).
    """
    import numpy as np

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


class ExperimentRunner:
    """Serial/parallel executor for experiment grids.

    Parameters
    ----------
    n_workers:
        Worker processes; ``1`` runs inline and ``None`` uses the
        machine's CPU count. More, without a ``queue_dir``, run a private
        temporary queue: removed on success, kept and named in the error
        on failure, so passing it as ``queue_dir`` resumes the grid.
    cache_dir:
        Enable the on-disk result cache at this directory.
    checkpoint_path:
        Enable resumable checkpointing: completed cells are appended to
        this JSONL file as they finish, and a later run with the same
        path skips them.
    mp_start_method:
        Start method of the queue's local workers; default "fork" where
        available (cheap, inherits the warm interpreter), else "spawn".
    queue_dir:
        Dispatch pending cells through the shared-directory work queue
        at ``queue_dir`` (:mod:`repro.dist`) at any worker count:
        external ``repro work --queue DIR`` workers on any host sharing
        the directory may join or leave mid-grid, and crashed workers'
        cells are re-issued. Reusing the directory resumes a grid: a
        cell already published comes back with ``source == "queue"``.
        Metrics, cache keys and checkpoints are bit-identical to the
        inline path; :attr:`dispatch` names the path, for telemetry.
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
        count, elapsed/ETA) on both paths. ``None``
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
        """``"queue"`` with a ``queue_dir`` or workers, else ``"inline"``."""
        return "queue" if self.queue_dir is not None or self.n_workers > 1 else "inline"

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
                    if self.queue_dir is None and (
                        self.n_workers == 1 or len(pending) == 1
                    ):
                        for task in pending.values():
                            self._record(resolved, execute_task(task))
                    else:
                        self._run_queue(pending, resolved)
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
        if self.cache is not None and result.source in ("run", "queue"):
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
                "queue": "runner.queue_hits",
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

    def _run_queue(
        self,
        pending: dict[str, ExperimentTask],
        resolved: dict[str, TaskResult],
    ) -> None:
        """Dispatch the pending cells (only those) through the queue;
        every result flows back through :meth:`_record`."""
        from repro.dist.coordinator import dispatch_tasks

        queue_dir = self.queue_dir
        if queue_dir is None:
            import tempfile

            queue_dir = tempfile.mkdtemp(prefix="repro-queue-")
        line, before = self._progress_line, len(resolved)
        try:
            results = dispatch_tasks(
                queue_dir,
                list(pending.values()),
                n_workers=min(self.n_workers, len(pending)),
                lease_ttl=self.lease_ttl,
                mp_start_method=self.mp_start_method,
                cell_timeout_s=self.cell_timeout_s,
                supervise=self.supervise,
                on_progress=lambda done: line.update(before + done),
            )
        except Exception as exc:
            if self.queue_dir is not None:
                raise
            raise RuntimeError(
                f"grid dispatch failed: {exc}\nIts queue is kept at {queue_dir}: "
                f"re-run with queue_dir (repro run --queue {queue_dir}) to "
                f"execute only the unfinished cells."
            ) from exc
        if self.queue_dir is None:
            import shutil

            shutil.rmtree(queue_dir, ignore_errors=True)
        for key in pending:
            self._record(resolved, results[key])
