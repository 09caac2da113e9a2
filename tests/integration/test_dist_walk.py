"""Two local queue workers sharing a grid meet once instead of leapfrogging.

Each worker walks the frontier forward from its own offset and turns at
the first cell a peer holds, so the two refuse each other a handful of
times per grid: not at every claim, as one trailing the other did.
"""

from __future__ import annotations

from repro.dist import WorkQueue, dispatch_tasks
from repro.exp import grid_tasks
from repro.experiments.harness import ExperimentConfig
from repro.obs.metrics import merge_snapshots


def test_two_workers_refuse_each_other_under_a_tenth_of_the_cells(tmp_path):
    config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3)
    tasks = grid_tasks(["heuristic"], ["S1"], config, n_seeds=100)
    results = dispatch_tasks(tmp_path / "q", tasks, n_workers=2)
    assert set(results) == {task.key() for task in tasks}
    queue = WorkQueue(tmp_path / "q", create=False)
    snapshots = queue.worker_metrics()
    assert len(snapshots) == 2
    counters = merge_snapshots(snapshots)["counters"]
    assert counters["lease.claims"] == len(tasks)
    assert counters.get("lease.conflicts", 0) < 0.1 * len(tasks), counters
