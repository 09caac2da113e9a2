"""Queue workers run one BLAS thread, whatever the parent runs.

A worker forked from a process whose OpenBLAS runs every core would
inherit that count, and N workers would run N × cores threads. Each test
here gives the parent two BLAS threads and no thread variable, runs a
registered FCFS alias that writes its process's BLAS thread count to a
file, and reads one thread back from every worker. CI runs this file
with ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``
unset as well, so a runner that exports them cannot mask the fix.
"""

from __future__ import annotations

import os

import pytest

from repro.api import SCHEDULERS, register_scheduler
from repro.api.cli import main
from repro.dist import WorkQueue, dispatch_tasks, ensure_enqueued
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig
from repro.sched.fcfs import FCFSScheduler
from repro.utils import blas


@pytest.fixture
def probe(tmp_path, monkeypatch):
    """The directory the ``blas_probe`` scheduler reports into, one file
    per process named by its pid; the parent runs two BLAS threads."""
    functions = blas._loaded_blas()
    if functions is None:
        pytest.skip("the loaded BLAS exports no known thread-count symbols")
    set_threads, get_threads = functions
    for name in blas._ENV:
        monkeypatch.delenv(name, raising=False)
    out = tmp_path / "threads"
    out.mkdir()

    @register_scheduler("blas_probe", description="FCFS reporting its BLAS threads")
    class BlasProbe(FCFSScheduler):
        def __init__(self, window_size=10, backfill=True):
            super().__init__(window_size=window_size, backfill=backfill)
            (out / str(os.getpid())).write_text(str(get_threads()))

    before = get_threads()
    set_threads(2)
    try:
        assert get_threads() == 2
        yield out
    finally:
        set_threads(before)
        SCHEDULERS.unregister("blas_probe")


def _tasks():
    config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    return grid_tasks(["blas_probe"], ["S1"], config, n_seeds=2)


def _reported(out) -> dict[int, int]:
    return {int(path.name): int(path.read_text()) for path in out.iterdir()}


def test_private_queue_worker_runs_one_blas_thread(probe):
    ExperimentRunner(n_workers=2, mp_start_method="fork").run(_tasks())
    reported = _reported(probe)
    assert reported and os.getpid() not in reported
    assert set(reported.values()) == {1}


def test_queue_worker_runs_one_blas_thread(probe, tmp_path):
    dispatch_tasks(tmp_path / "q", _tasks(), n_workers=2, lease_ttl=10.0)
    reported = _reported(probe)
    assert reported and os.getpid() not in reported
    assert set(reported.values()) == {1}


def test_repro_work_runs_one_blas_thread(probe, tmp_path):
    queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
    queue.write_meta(batch_episodes=1)
    ensure_enqueued(queue, _tasks())
    assert main(["work", "--queue", str(queue.root), "--worker-id", "blas-w0"]) == 0
    assert _reported(probe) == {os.getpid(): 1}


def test_an_explicit_thread_variable_wins(probe, monkeypatch):
    set_threads, get_threads = blas._loaded_blas()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    blas.limit_blas_threads()
    assert get_threads() == 2
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    blas.limit_blas_threads()
    assert get_threads() == 1
