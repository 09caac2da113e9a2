"""The fault harness's own contract (``tests/_dist_faults.py``): plan
validation, the injector's counting windows — and that production
``repro.dist`` kept none of it."""

from __future__ import annotations

import multiprocessing

import pytest

import repro.dist
from repro.api.cli import main
from repro.dist import dispatch_tasks
from repro.exp import grid_tasks
from repro.experiments.harness import ExperimentConfig
from tests._dist_faults import FaultInjector, FaultPlan


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(kill_after_claims=2, delay_publish_s=0.5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            FaultPlan.from_json('{"explode": true}')

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="kill_after_claims"):
            FaultPlan(kill_after_claims=0)
        with pytest.raises(ValueError, match="delay_publish_s"):
            FaultPlan(delay_publish_s=-1.0)

    def test_heartbeat_dropping(self):
        injector = FaultInjector(FaultPlan(drop_heartbeats_after=2))
        assert injector.on_heartbeat() and injector.on_heartbeat()
        assert not injector.on_heartbeat()
        assert not injector.on_heartbeat()

    def test_no_plan_is_inert(self):
        injector = FaultInjector()
        injector.on_claim("k")
        injector.on_publish("k")
        assert injector.on_heartbeat()


class TestFaultInjectorWindows:
    def plan(self, **entry) -> FaultInjector:
        entry.setdefault("errno", "EIO")
        return FaultInjector(FaultPlan(io_faults=[entry]))

    def test_nth_fires_on_exactly_the_nth_match(self):
        injector = self.plan(op="write", nth=2, count=1)
        assert injector.on_io("write", "/q/a") is None
        assert injector.on_io("read", "/q/a") is None  # op filter
        assert injector.on_io("write", "/q/b") is not None
        assert injector.on_io("write", "/q/c") is None  # window closed

    def test_count_zero_fires_forever(self):
        injector = self.plan(op="any", count=0)
        for _ in range(5):
            assert injector.on_io("unlink", "/q/x") is not None

    def test_path_pattern_matches_anywhere(self):
        injector = self.plan(path="results/*")
        assert injector.on_io("write", "/tmp/q/results/j.jsonl") is not None
        assert injector.on_io("write", "/tmp/q/tasks/t.json") is None

    def test_match_counters_are_observable(self):
        injector = self.plan(op="write", nth=3, count=1)
        for _ in range(4):
            injector.on_io("write", "/q/a")
        assert injector.io_matches == [4]
        assert injector.io_fired == [1]

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="errno"):
            FaultPlan(io_faults=[{"errno": "NOT_AN_ERRNO"}])
        with pytest.raises(ValueError, match="op"):
            FaultPlan(io_faults=[{"op": "chmod", "errno": "EIO"}])
        with pytest.raises(ValueError, match="nth"):
            FaultPlan(io_faults=[{"errno": "EIO", "nth": 0}])
        with pytest.raises(ValueError, match="scripts nothing"):
            FaultPlan(io_faults=[{"path": "*"}])

    def test_plan_json_roundtrip_with_io_faults(self):
        plan = FaultPlan(
            io_faults=[{"op": "append", "errno": "ENOSPC", "count": 0}]
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestCoordinatorFaultPlan:
    def test_kill_point_validation(self):
        with pytest.raises(ValueError, match="kill_coordinator_at"):
            FaultPlan(kill_coordinator_at="enqueue")
        with pytest.raises(ValueError, match="kill_coordinator_nth"):
            FaultPlan(kill_coordinator_at="merge", kill_coordinator_nth=0)
        plan = FaultPlan(kill_coordinator_at="dispatch", kill_coordinator_nth=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_on_coordinator_counts_and_fires_nth(self):
        injector = FaultInjector(
            FaultPlan(kill_coordinator_at="dispatch", kill_coordinator_nth=3)
        )
        fired = []
        injector._kill_self = lambda: fired.append(True)
        injector.on_coordinator("staged")
        injector.on_coordinator("dispatch")
        injector.on_coordinator("dispatch")
        assert not fired
        injector.on_coordinator("dispatch")
        assert fired
        assert injector.coordinator_points == {"staged": 1, "dispatch": 3}


def _dispatch(queue_dir: str) -> None:
    tasks = grid_tasks(
        ["heuristic"], ["S1"],
        ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3),
        n_seeds=1,
    )
    dispatch_tasks(queue_dir, tasks, n_workers=1, lease_ttl=10.0)


class TestProductionHasNoFaultVocabulary:
    def test_environment_plan_cannot_kill_a_coordinator(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_DIST_FAULTS", '{"kill_coordinator_at": "dispatch"}'
        )
        proc = multiprocessing.get_context("fork").Process(
            target=_dispatch, args=(str(tmp_path / "q"),)
        )
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 0

    def test_work_has_no_faults_flag(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"kill_after_claims": 1}')
        with pytest.raises(SystemExit) as exc:
            main(["work", "--queue", str(tmp_path), "--faults", str(plan)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --faults" in capsys.readouterr().err

    def test_package_exports_no_fault_names(self):
        for name in ("FaultPlan", "FaultInjector"):
            assert name not in repro.dist.__all__
            assert not hasattr(repro.dist, name)
