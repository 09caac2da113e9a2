"""Telemetry is "how", never "what": enabling it changes no result.

The contract every instrumented layer (scheduler loop, simulator,
runner, queue workers) must honor — an enabled session may time, count
and log, but it consumes no RNG and touches no simulation state, so
metrics and decision streams are bit-identical with telemetry on or
off. These tests run the same grid both ways and compare exactly,
then check the telemetry artifacts themselves are complete enough for
``repro trace export``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.obs as obs
from repro.api import run_scenario
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig, make_method, train_method
from repro.obs.events import read_events
from repro.obs.spans import export_chrome_trace, load_spans
from repro.sched.fcfs import FCFSScheduler
from repro.sim.simulator import Simulator
from tests.unit.test_mrsch import small_mrsch

METHODS = ["heuristic", "optimization", "scalar_rl"]


@pytest.fixture(autouse=True)
def telemetry_teardown():
    """Never leak an enabled session into the rest of the suite."""
    yield
    if obs.enabled():
        obs.disable()


@pytest.fixture(scope="module")
def grid_config() -> ExperimentConfig:
    return ExperimentConfig(nodes=32, bb_units=16, n_jobs=25, window_size=5, seed=41)


def _exact(results):
    return [(r.key, r.seed, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in results]


class TestBitIdentity:
    def test_grid_identical_with_telemetry_enabled(self, grid_config, tmp_path):
        tasks = grid_tasks(METHODS, ["S1", "S3"], grid_config, n_seeds=2)
        plain = ExperimentRunner(n_workers=1).run(tasks)
        session = obs.enable(tmp_path / "telemetry", sample_decisions=True)
        try:
            instrumented = ExperimentRunner(n_workers=1).run(tasks)
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)
        # none of the three policies reads Eq. 1
        assert counters["sim.goal_refreshes"] == 0

    def test_mrsch_cell_identical_and_one_episode_per_workload(
        self, grid_config, tmp_path
    ):
        """A multi-workload MRSch cell replays each workload as one
        ``Simulator.run``, which reports its own ``episode`` inside the
        workload's span."""
        workloads = ["S1", "S3", "S5"]
        tasks = grid_tasks(["mrsch"], workloads, grid_config)
        plain = ExperimentRunner(n_workers=1).run(tasks)
        session = obs.enable(tmp_path / "telemetry")
        try:
            instrumented = ExperimentRunner(n_workers=1).run(tasks)
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)

        assert counters["sim.episodes"] == len(workloads)
        spans = load_spans(tmp_path / "telemetry")
        workload_spans = [s for s in spans if s["name"] == "workload"]
        episodes = [s for s in spans if s["name"] == "episode"]
        assert [s["attrs"]["workload"] for s in workload_spans] == workloads
        assert len(episodes) == len(workloads)
        for parent, episode in zip(workload_spans, episodes):
            assert episode["parent_id"] == parent["span_id"]
            assert episode["attrs"]["scheduler"] == "mrsch"
            assert episode["attrs"]["jobs"] == grid_config.n_jobs
            assert episode["attrs"]["instances"] > 0
            assert episode["attrs"]["decisions"] == grid_config.n_jobs
            assert 0 < episode["dur_s"] <= parent["dur_s"]
        # A lightly loaded machine under the guided policy: one job per
        # window or a clear prior, the network is never asked.
        assert counters["sim.decisions"] == len(workloads) * grid_config.n_jobs
        assert counters["sim.decisions_scored"] == counters["sim.decisions_overruled"] == 0

    def test_open_decisions_are_counted(self, grid_config, tmp_path):
        """Pure DFP on a loaded machine: every window with more than one
        job is scored, and the counters say so."""
        config = dataclasses.replace(grid_config, n_jobs=40, mean_interarrival=150.0)
        workloads = ["S1", "S3", "S5"]
        tasks = [
            dataclasses.replace(task, extra=(("prior_weight", 0.0),))
            for task in grid_tasks(["mrsch"], workloads, config)
        ]
        plain = ExperimentRunner(n_workers=1).run(tasks)
        session = obs.enable(tmp_path / "telemetry")
        try:
            instrumented = ExperimentRunner(n_workers=1).run(tasks)
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)

        assert 0 < counters["sim.decisions_scored"] < counters["sim.decisions"]
        # pure DFP has no prior to overrule
        assert counters["sim.decisions_overruled"] == 0
        episodes = [
            s for s in load_spans(tmp_path / "telemetry") if s["name"] == "episode"
        ]
        for key in ("decisions", "decisions_scored", "decisions_overruled"):
            assert sum(e["attrs"][key] for e in episodes) == counters[f"sim.{key}"]

    def test_overruled_decisions_are_counted_without_changing_them(
        self, grid_config, tmp_path
    ):
        """Guided MRSch on a loaded machine with full windows: the network
        overrules the prior on some scored decisions, and counting them
        changes no result."""
        config = dataclasses.replace(
            grid_config, n_jobs=100, window_size=10, mean_interarrival=60.0
        )
        tasks = grid_tasks(["mrsch"], ["S1", "S3", "S5"], config)
        plain = ExperimentRunner(n_workers=1).run(tasks)
        session = obs.enable(tmp_path / "telemetry")
        try:
            instrumented = ExperimentRunner(n_workers=1).run(tasks)
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)
        assert 0 < counters["sim.decisions_overruled"] <= counters["sim.decisions_scored"]
        episodes = [
            s for s in load_spans(tmp_path / "telemetry") if s["name"] == "episode"
        ]
        assert sum(e["attrs"]["decisions_overruled"] for e in episodes) == (
            counters["sim.decisions_overruled"]
        )

    def test_goal_refreshes_counted_without_changing_a_result(self, tmp_path):
        """The seed-7 ``replay_theta`` cell refreshes Eq. 1 only where a
        decision reads it; the counter says how often, per episode and in
        total, and counting changes no result."""
        from tests.integration.test_benchmark_digests import (
            REPLAY_THETA_SEED7_GOAL_REFRESHES,
            _load,
        )

        scenario = _load("workloads").WORKLOADS["replay_theta"].scenario_for(7)
        plain = run_scenario(scenario, progress=False).results
        session = obs.enable(tmp_path / "telemetry")
        try:
            instrumented = run_scenario(scenario, progress=False).results
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)
        assert counters["sim.goal_refreshes"] == REPLAY_THETA_SEED7_GOAL_REFRESHES
        episodes = [
            s for s in load_spans(tmp_path / "telemetry") if s["name"] == "episode"
        ]
        assert len(episodes) == len(scenario["workloads"])
        assert sum(e["attrs"]["goal_refreshes"] for e in episodes) == (
            REPLAY_THETA_SEED7_GOAL_REFRESHES
        )

    def test_backfill_passes_counted_without_changing_a_result(self, tmp_path):
        """The seed-7 ``replay_fcfs`` cell's EASY passes and the rows
        they tested, per episode and in total; counting changes no
        result."""
        from tests.integration.test_benchmark_digests import (
            REPLAY_FCFS_SEED7_BACKFILL,
            _load,
        )

        scenario = _load("workloads").WORKLOADS["replay_fcfs"].scenario_for(7)
        plain = run_scenario(scenario, progress=False).results
        session = obs.enable(tmp_path / "telemetry")
        try:
            instrumented = run_scenario(scenario, progress=False).results
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert _exact(instrumented) == _exact(plain)
        passes, rows = REPLAY_FCFS_SEED7_BACKFILL
        assert (counters["sim.backfill_passes"], counters["sim.backfill_rows"]) == (
            passes, rows
        )
        (episode,) = [
            s for s in load_spans(tmp_path / "telemetry") if s["name"] == "episode"
        ]
        assert (episode["attrs"]["backfill_passes"], episode["attrs"]["backfill_rows"]) == (
            passes, rows
        )

    def test_episode_decision_stream_identical(self, mini_system, theta_trace):
        def starts():
            sim = Simulator(mini_system, FCFSScheduler(), record_timeline=False)
            result = sim.run(theta_trace)
            return [(j.job_id, j.start_time) for j in result.jobs]

        plain = starts()
        obs.enable(sample_decisions=True, decision_sample_every=1)  # time every one
        try:
            instrumented = starts()
        finally:
            obs.disable()
        assert instrumented == plain

    def test_sequential_mrsch_decisions_are_timed(self, tiny_system, tiny_trace):
        """Every MRSch decision of a replay is a timed ``select``."""
        sched = small_mrsch(tiny_system)
        session = obs.enable(sample_decisions=True, decision_sample_every=1)
        try:
            Simulator(tiny_system, sched, record_timeline=False).run(tiny_trace)
            histograms = session.metrics.snapshot()["histograms"]
        finally:
            obs.disable()
        assert sched.decisions > 0
        assert histograms["sched.decision_us.mrsch"]["count"] == sched.decisions

    def test_every_decision_of_a_multi_workload_mrsch_cell_is_timed(
        self, grid_config
    ):
        """The decision probe sees a multi-workload MRSch cell too: one
        timed ``select`` per decision the simulator counted."""
        (task,) = grid_tasks(["mrsch"], ["S1", "S3"], grid_config)
        session = obs.enable(sample_decisions=True, decision_sample_every=1)
        try:
            ExperimentRunner(n_workers=1).run([task])
            snapshot = session.metrics.snapshot()
        finally:
            obs.disable()
        decisions = snapshot["counters"]["sim.decisions"]
        assert decisions == 2 * grid_config.n_jobs
        assert snapshot["histograms"]["sched.decision_us.mrsch"]["count"] == decisions

    def test_training_identical_and_logged_per_episode(self, tmp_path):
        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=25, window_size=5,
                                  seed=41, curriculum_sets=(1, 1, 1), jobs_per_trainset=20)

        def train():
            system = config.system()
            sched = make_method("mrsch", system, config)
            result = train_method(sched, system, config)
            return result, sched.agent.state_dict()

        plain, plain_weights = train()
        assert not list(tmp_path.iterdir())  # telemetry off: nothing emitted
        obs.enable(tmp_path / "telemetry")
        try:
            logged, logged_weights = train()
        finally:
            obs.disable()
        assert (logged.losses, logged.phases, logged.epsilons) == (
            plain.losses, plain.phases, plain.epsilons)
        for key, value in plain_weights.items():
            assert (logged_weights[key] == value).all()

        episodes = [e for e in read_events(tmp_path / "telemetry")
                    if e["event"] == "train_episode"]
        assert [e["phase"] for e in episodes] == plain.phases
        assert [e["loss"] for e in episodes] == plain.losses
        assert [e["epsilon"] for e in episodes] == plain.epsilons
        assert [e["episode"] for e in episodes] == [1, 2, 3]
        for e in episodes:
            assert e["batches"] == 128 and e["replay_size"] > 0
            assert e["train_wall_s"] > 0

    def test_queue_dispatch_identical_with_telemetry(self, grid_config, tmp_path):
        tasks = grid_tasks(["heuristic"], ["S1"], grid_config, n_seeds=2)
        plain = ExperimentRunner(n_workers=1).run(tasks)
        obs.enable(tmp_path / "telemetry")
        try:
            queued = ExperimentRunner(
                n_workers=2,
                queue_dir=tmp_path / "queue",
                lease_ttl=20.0,
            ).run(tasks)
        finally:
            obs.disable()
        assert _exact(queued) == _exact(plain)
        # The coordinator rolled the workers' snapshots up beside its own.
        aggregate = json.loads((tmp_path / "telemetry" / "metrics-queue.json").read_text())
        assert aggregate["counters"]["queue.cells_executed"] == 2
        assert aggregate["merged_from"] >= 1


class TestArtifacts:
    def test_run_writes_exportable_telemetry(self, grid_config, tmp_path):
        telemetry = tmp_path / "telemetry"
        tasks = grid_tasks(["heuristic", "optimization"], ["S1"], grid_config,
                           n_seeds=1)
        session = obs.enable(telemetry, sample_decisions=True)
        try:
            ExperimentRunner(n_workers=1).run(tasks)
            sampled = session.metrics.counter("sched.decisions_sampled").value
        finally:
            obs.disable()

        spans = load_spans(telemetry)
        names = {s["name"] for s in spans}
        assert {"run", "cell", "episode"} <= names
        events = read_events(telemetry)
        kinds = {e["event"] for e in events}
        assert {"run_start", "cell_done", "run_done"} <= kinds
        done = [e for e in events if e["event"] == "cell_done"]
        assert len(done) == 2 and all("key" in e for e in done)

        metrics_files = list(telemetry.glob("metrics-*.json"))
        assert metrics_files
        merged = obs.merge_snapshots(
            json.loads(p.read_text()) for p in metrics_files
        )
        assert merged["counters"]["cells.executed"] == 2
        assert merged["counters"]["sched.decisions_sampled"] == sampled

        out = export_chrome_trace(telemetry)
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "i" in phases
        assert any(e["name"] == "cell" for e in doc["traceEvents"])
