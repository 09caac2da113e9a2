"""The one launcher of local queue workers (`WorkerSupervisor` under
`dispatch_tasks`): a clean drain leaves a clean queue directory in both
crash-budget modes, and an unsupervised crash is struck and released
like a supervised one."""

from __future__ import annotations

import time

import pytest

from repro.dist import WorkQueue, audit_queue, dispatch_tasks
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig
from tests import _dist_faults
from tests._dist_faults import FaultPlan


@pytest.fixture(scope="module")
def tasks():
    config = ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3
    )
    return grid_tasks(["heuristic"], ["S1"], config, n_seeds=12)


@pytest.fixture(scope="module")
def serial_exact(tasks):
    return _exact(ExperimentRunner(n_workers=1).run(tasks))


def _exact(results):
    return [(r.key, r.seed, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in results]


@pytest.mark.parametrize("supervise", [False, True])
def test_clean_drain_leaves_a_clean_queue(
    supervise, tasks, serial_exact, tmp_path
):
    """Workers are allowed to finish their exit records before the
    launcher stops them: nothing stale, no debris, doctor-clean."""
    results = dispatch_tasks(
        tmp_path / "q", tasks, n_workers=2, lease_ttl=10.0,
        supervise=supervise,
    )
    assert _exact([results[t.key()] for t in tasks]) == serial_exact
    queue = WorkQueue(tmp_path / "q", create=False)
    workers = queue.workers()
    assert len(workers) == 2
    assert all(w.get("exited") is True for w in workers)
    assert not list(queue.root.rglob(".*.tmp"))
    report = audit_queue(tmp_path / "q", stale_worker_s=0)
    assert report.ok, report.findings


def test_unsupervised_crash_strikes_and_releases_the_held_cell(
    tasks, serial_exact, tmp_path, monkeypatch
):
    """A worker SIGKILLed holding a lease, no respawn: the cell takes
    exactly one failure strike and re-issues at once — with a 60 s ttl
    the old wait-for-expiry behaviour could not finish in time."""
    _dist_faults.install({"sup0g0": FaultPlan(kill_after_claims=1)}, monkeypatch)
    t0 = time.monotonic()
    results = dispatch_tasks(
        tmp_path / "q", tasks, n_workers=2, lease_ttl=60.0,
    )
    assert time.monotonic() - t0 < 30.0
    assert _exact([results[t.key()] for t in tasks]) == serial_exact
    queue = WorkQueue(tmp_path / "q", create=False)
    assert list(queue.failures().values()) == [1]
    (struck,) = queue.failures()
    assert "worker process crashed" in queue.failure_errors(struck)[0]
    # Nothing respawned: the crashed slot's breaker opened at once.
    assert len(queue.workers()) == 2


class TestDerivedDispatch:
    def test_dispatch_is_derived_from_queue_dir(self, tmp_path):
        assert ExperimentRunner().dispatch == "pool"
        assert ExperimentRunner(queue_dir=tmp_path / "q").dispatch == "queue"
        with pytest.raises(TypeError):
            ExperimentRunner(dispatch="queue", queue_dir=tmp_path / "q")

    def test_scenario_execution_dispatch_key_still_loads_and_runs(
        self, tmp_path
    ):
        from repro.api import run_scenario

        result = run_scenario({
            "methods": ["heuristic"],
            "workloads": ["S1"],
            "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
            "train": False,
            "config": {"n_jobs": 15, "window_size": 5},
            "execution": {
                "dispatch": "queue",
                "queue_dir": str(tmp_path / "q"),
                "workers": 1,
            },
        })
        assert result.reports["S1"]["heuristic"].n_jobs == 15
        assert WorkQueue(tmp_path / "q", create=False).status().done == 1
