"""Unit tests for worker metrics snapshots and queue throughput/ETA."""

from __future__ import annotations

import shutil
import time

import pytest

from repro.dist.manifest import ensure_enqueued
from repro.dist.queue import WorkQueue
from repro.exp.runner import grid_tasks
from repro.experiments.harness import ExperimentConfig
from repro.obs.metrics import MetricsRegistry


def make_queue(tmp_path, n_seeds: int = 2) -> WorkQueue:
    queue = WorkQueue(tmp_path / "queue", lease_ttl=30.0)
    config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    ensure_enqueued(
        queue, grid_tasks(["heuristic"], ["S1"], config, n_seeds=n_seeds)
    )
    return queue


def snapshot(worker_id: str, rate: float, cells: int = 10, exited: bool = False):
    """A realistic snapshot whose lifetime rate is ``rate`` cells/sec."""
    return MetricsRegistry().snapshot(
        worker_id=worker_id,
        started_at=time.time() - cells / rate,
        cells_done=cells,
        exited=exited,
    )


class TestWorkerMetricsFiles:
    def test_write_read_round_trip(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.write_worker_metrics("w0", snapshot("w0", rate=2.0))
        queue.write_worker_metrics("w1", snapshot("w1", rate=1.0))
        snaps = queue.worker_metrics()
        assert [s["worker_id"] for s in snaps] == ["w0", "w1"]

    def test_missing_and_corrupt_files_tolerated(self, tmp_path):
        queue = make_queue(tmp_path)
        shutil.rmtree(queue.metrics_dir)  # pre-metrics queue layout
        assert queue.worker_metrics() == []
        queue.write_worker_metrics("w0", snapshot("w0", rate=2.0))  # recreates dir
        (queue.metrics_dir / "broken.json").write_text("{not json")
        assert [s["worker_id"] for s in queue.worker_metrics()] == ["w0"]


class TestThroughput:
    def test_status_rate_and_eta(self, tmp_path):
        queue = make_queue(tmp_path)  # 2 pending cells
        queue.write_worker_metrics("w0", snapshot("w0", rate=0.5))
        queue.write_worker_metrics("w1", snapshot("w1", rate=0.5))
        status = queue.status()
        assert status.pending == 2
        # Concurrent workers' lifetime rates add: 0.5 + 0.5 cells/s.
        assert status.cells_per_sec == pytest.approx(1.0, rel=0.05)
        assert status.eta_s == pytest.approx(2.0, rel=0.05)
        assert "throughput" in status.summary()
        assert status.to_json_dict()["cells_per_sec"] == status.cells_per_sec

    def test_exited_workers_excluded_when_any_live(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.write_worker_metrics("gone", snapshot("gone", rate=100.0, exited=True))
        queue.write_worker_metrics("w0", snapshot("w0", rate=1.0))
        status = queue.status()
        assert status.cells_per_sec == pytest.approx(1.0, rel=0.05)

    def test_all_exited_still_reports_historical_rate(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.write_worker_metrics("gone", snapshot("gone", rate=2.0, exited=True))
        status = queue.status()
        assert status.cells_per_sec == pytest.approx(2.0, rel=0.05)

    def test_graceful_none_without_snapshots(self, tmp_path):
        queue = make_queue(tmp_path)
        status = queue.status()
        assert status.cells_per_sec is None and status.eta_s is None
        assert "throughput" not in status.summary()

    def test_zero_progress_snapshots_give_none(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.write_worker_metrics(
            "w0",
            MetricsRegistry().snapshot(
                worker_id="w0", started_at=time.time() - 5.0, cells_done=0
            ),
        )
        status = queue.status()
        assert status.cells_per_sec is None and status.eta_s is None
