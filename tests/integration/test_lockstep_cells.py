"""Lockstep is how a multi-workload MRSch cell is evaluated.

``execute_task`` decides from the cell alone — more than one workload,
no trace capture, a policy that offers lockstep clones — whether its
replays run as lanes of one ``BatchedSimulator`` or as one
``Simulator.run`` each. Nothing a caller passes selects the path, so
these tests observe it: both simulators' ``run`` methods are wrapped to
log every call, the way the end-to-end benchmark wraps ``Simulator.run``
to count replays and check per-job invariants — which is why every lane
is itself one ``Simulator.run`` call (``drive=``) and must show up there.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.api.registry import WORKLOADS, register_workload
from repro.core.mrsch import MRSchScheduler
from repro.dist import QueueWorker, WorkQueue, ensure_enqueued
from repro.exp import ExperimentRunner, grid_tasks
from repro.exp.tasks import LOCKSTEP_LANES, execute_task
from repro.experiments.harness import (
    ExperimentConfig,
    make_method,
    prepare_base_trace,
    train_method,
)
from repro.sim.batched import BatchedSimulator
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload

S1_TO_S5 = ("S1", "S2", "S3", "S4", "S5")

#: a loaded mini-Theta (jobs queue, windows fill) with a curriculum short
#: enough for tier-1
MINI = ExperimentConfig(
    nodes=32, bb_units=16, n_jobs=40, window_size=5, seed=41,
    mean_interarrival=150.0, curriculum_sets=(1, 1, 1), jobs_per_trainset=20,
)
#: the paper's machine — the [11410, 1] state — over a short trace that
#: arrives fast enough for windows to hold more than one job
THETA = ExperimentConfig(
    nodes=4392, bb_units=1290, n_jobs=40, window_size=10, seed=41,
    mean_interarrival=30.0, system_name="theta",
)

#: Smallest gap allowed between the best and second-best final score of
#: any decision (exact ties aside, which both paths break by slot
#: order): three orders above the ~1e-12 by which a stacked forward pass
#: deviates from the B=1 one (tests/unit/test_dfp.py).
MIN_MARGIN = 1e-9


@pytest.fixture
def sim_calls(monkeypatch):
    """Every ``Simulator.run`` / ``BatchedSimulator.run`` made while the
    test runs: ``(kind, scheduler name, [(jobs in, result out), ...])``.
    A ``Simulator.run`` that a ``BatchedSimulator`` drives is a "lane"."""
    calls: list[tuple] = []
    sequential, lockstep = Simulator.run, BatchedSimulator.run

    def run(self, jobs, **driven):
        result = sequential(self, jobs, **driven)
        kind = "lane" if driven else "sequential"
        calls.append((kind, self.scheduler.name, [(jobs, result)]))
        return result

    def run_lanes(self, jobsets):
        results = lockstep(self, jobsets)
        calls.append(
            ("lockstep", self.schedulers[0].name, list(zip(jobsets, results)))
        )
        return results

    monkeypatch.setattr(Simulator, "run", run)
    monkeypatch.setattr(BatchedSimulator, "run", run_lanes)
    return calls


@pytest.fixture
def margins(monkeypatch):
    """Top-two margin of the final scores of every MRSch decision the
    network scored — the guided policy's combined scores, or the pure
    one's masked raw scores. Settled and explored decisions have none."""
    seen: list[float] = []
    apply_decision = MRSchScheduler.apply_decision

    def spy(self, window, ctx, scores):
        job = apply_decision(self, window, ctx, scores)
        final = self._last_scores
        if final is None and scores is not None:
            final = scores[: len(window)]
        if final is not None:
            ranked = np.sort(final[np.isfinite(final)])
            if ranked.size > 1:
                seen.append(float(ranked[-1] - ranked[-2]))
        return job

    monkeypatch.setattr(MRSchScheduler, "apply_decision", spy)
    return seen


@pytest.fixture
def stacked_rows(monkeypatch):
    """Decision rows each ``BatchedSimulator.run`` scored in stacked
    (B > 1) calls — the rows whose floats may differ from the B=1 path."""
    rows: list[int] = []
    lockstep = BatchedSimulator.run

    def run_lanes(self, jobsets):
        results = lockstep(self, jobsets)
        rows.append(self.scored_rows)
        return results

    monkeypatch.setattr(BatchedSimulator, "run", run_lanes)
    return rows


def _shapes(calls) -> list[tuple[str, int]]:
    """Which simulator ran how many episodes, lanes' own calls aside."""
    return [(kind, len(episodes)) for kind, _, episodes in calls if kind != "lane"]


def _outcome(result) -> tuple:
    return (
        [(job.job_id, job.start_time, job.end_time) for job in result.jobs],
        result.metrics.full_dict(),
        result.n_scheduling_instances,
    )


def _five_sequential_replays(task):
    """What the cell means: one scheduler, built (and trained) with the
    cell seed, replayed over the workloads one ``Simulator.run`` each."""
    config = dataclasses.replace(task.config, seed=task.seed)
    system = config.system()
    base = prepare_base_trace(config)
    sched = make_method(task.method, system, config, **dict(task.extra))
    if task.train:
        train_method(sched, system, config)
    return [
        Simulator(system, sched).run(
            build_workload(workload, base, system, seed=config.seed)
        )
        for workload in task.workloads
    ]


def _cell(config, method="mrsch", workloads=S1_TO_S5, extra=(), **kwargs):
    (task,) = grid_tasks([method], list(workloads), config, **kwargs)
    return dataclasses.replace(task, extra=tuple(extra))


#: the pure-DFP policy of the paper: no prior settles anything, so every
#: window with more than one job is scored
PURE_DFP = (("prior_weight", 0.0),)


class TestLockstepEqualsSequential:
    @pytest.mark.parametrize(
        "config, train, extra, min_scored, min_stacked",
        [
            # Under the guided policy the prior settles most windows
            # before the network is asked; on the mini machine, all.
            (MINI, True, (), 0, 0),
            (THETA, False, (), 8, 6),
            (MINI, True, PURE_DFP, 20, 15),
            (THETA, False, PURE_DFP, 18, 15),
        ],
        ids=[
            "mini-theta-trained", "theta-untrained",
            "mini-theta-trained-pure-dfp", "theta-untrained-pure-dfp",
        ],
    )
    def test_cell_equals_five_sequential_replays(
        self, config, train, extra, min_scored, min_stacked,
        stacked_rows, sim_calls, margins,
    ):
        task = _cell(config, train=train, extra=extra)
        expected = _five_sequential_replays(task)
        reference_calls = len(sim_calls)
        reference_decisions = len(margins)

        result = execute_task(task)

        evaluation = [c for c in sim_calls[reference_calls:] if c[0] == "lockstep"]
        assert _shapes(evaluation) == [("lockstep", 5)]
        lanes = [lane for _, lane in evaluation[0][2]]
        assert [_outcome(lane) for lane in lanes] == [_outcome(e) for e in expected]
        assert [result.metrics[w].full_dict() for w in S1_TO_S5] == [
            e.metrics.full_dict() for e in expected
        ]

        # Margin audit, over the sequential and the lockstep decisions
        # alike: no near-tie that a ~1e-12 reassociation could flip —
        # and enough of them went through a stacked call for the audit
        # to mean something.
        assert len(margins) == 2 * reference_decisions
        scored = len(margins) - reference_decisions
        assert scored >= min_scored
        assert stacked_rows[-1] >= min_stacked
        nonzero = [m for m in margins if m != 0.0]
        assert not scored or (nonzero and min(nonzero) >= MIN_MARGIN)

    def test_every_lane_is_a_simulator_run_that_keeps_the_per_job_invariants(
        self, sim_calls
    ):
        """What benchmarks/e2e/trace.py sees through its ``Simulator.run``
        wrapper — ``(self, jobs)`` in, the lane's result out — and what
        check.py ``simulation_problems`` asks of it, per lane."""
        execute_task(_cell(MINI))
        *lanes, (kind, _, episodes) = sim_calls
        assert kind == "lockstep" and len(episodes) == 5
        assert [c[0] for c in lanes] == ["lane"] * 5
        # opened in lane order, one around the next: closed in reverse
        assert [c[2][0][1] for c in reversed(lanes)] == [r for _, r in episodes]
        for _, _, ((submitted, result),) in lanes:
            assert sorted(j.job_id for j in result.jobs) == sorted(
                j.job_id for j in submitted
            )
            for job in result.jobs:
                assert job.start_time is not None
                assert job.start_time >= job.submit_time
                assert job.end_time is not None and math.isfinite(job.end_time)

    def test_untrained_replay_leaves_gradient_buffers_unset(self):
        """Inference never materialises ``Layer.grads``."""
        agents = []
        build = MRSchScheduler.__init__

        def remember(self, *args, **kwargs):
            build(self, *args, **kwargs)
            agents.append(self.agent)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MRSchScheduler, "__init__", remember)
            execute_task(_cell(MINI))
        assert len(agents) == 5 and len({id(a) for a in agents}) == 1
        layers = [
            layer
            for _, net in agents[0].network._branches()
            for layer in net.layers
        ]
        assert any(layer.params for layer in layers)
        assert all(layer._grads is None for layer in layers)


@pytest.fixture
def four_more_workloads():
    """S1–S4 under four more names: with S1–S5, a nine-workload cell."""
    names = [f"L{i}" for i in range(6, 10)]
    for name, spec in zip(names, S1_TO_S5):
        register_workload(name)(
            lambda base, system, seed, spec=spec: build_workload(
                spec, base, system, seed=seed
            )
        )
    yield tuple(names)
    for name in names:
        WORKLOADS.unregister(name)


class TestPathFollowsFromTheCell:
    def test_nine_workloads_run_as_eight_lanes_plus_one(
        self, sim_calls, four_more_workloads
    ):
        assert LOCKSTEP_LANES == 8
        workloads = S1_TO_S5 + four_more_workloads
        result = execute_task(_cell(MINI, workloads=workloads))
        assert _shapes(sim_calls) == [("lockstep", 8), ("sequential", 1)]
        assert tuple(result.metrics) == workloads
        # L6 is S1 under another name: same jobs, a different lane.
        assert result.metrics["L6"].full_dict() == result.metrics["S1"].full_dict()

    def test_two_workloads_are_enough(self, sim_calls):
        execute_task(_cell(MINI, workloads=("S1", "S3")))
        assert _shapes(sim_calls) == [("lockstep", 2)]

    def test_one_workload_is_sequential(self, sim_calls):
        execute_task(_cell(MINI, workloads=("S3",)))
        assert _shapes(sim_calls) == [("sequential", 1)]

    @pytest.mark.parametrize("method", ["heuristic", "optimization", "scalar_rl"])
    def test_policies_without_lockstep_clones_are_sequential(self, method, sim_calls):
        execute_task(_cell(MINI, method=method, workloads=("S1", "S3", "S5")))
        assert _shapes(sim_calls) == [("sequential", 1)] * 3

    def test_trace_capture_is_sequential(self, sim_calls, tmp_path):
        task = _cell(MINI, workloads=("S1", "S3"), capture_traces=True)
        result = execute_task(task, tmp_path / "traces")
        assert _shapes(sim_calls) == [("sequential", 1)] * 2
        assert len(result.trace_keys) == 2
        plain = execute_task(_cell(MINI, workloads=("S1", "S3")))
        assert _shapes(sim_calls)[2:] == [("lockstep", 2)]
        assert {w: m.full_dict() for w, m in result.metrics.items()} == {
            w: m.full_dict() for w, m in plain.metrics.items()
        }


class TestNoCallerSelectsThePath:
    def test_queue_context_written_by_older_callers_is_ignored(
        self, sim_calls, tmp_path
    ):
        """The benchmark's traced queue run (and any queue directory an
        older coordinator sealed) still carries a ``batch_episodes`` key
        in its meta and manifest context: it must drain, and mean
        nothing."""
        task = _cell(MINI, workloads=("S1", "S3", "S5"))
        context = {"trace_dir": None, "trace_compact": False, "batch_episodes": 1}
        queue = WorkQueue(tmp_path / "queue")
        queue.write_meta(**context)
        manifest = ensure_enqueued(queue, [task], context=context)
        assert manifest.context["batch_episodes"] == 1
        report = QueueWorker(
            queue, worker_id="solo", spool_dir=tmp_path / "spool"
        ).run()
        assert report.executed == [task.key()]
        assert _shapes(sim_calls) == [("lockstep", 3)]
        merged = queue.merged_results()[task.key()]
        inline = execute_task(task)
        assert {w: m.full_dict() for w, m in merged.metrics.items()} == {
            w: m.full_dict() for w, m in inline.metrics.items()
        }

    def test_the_argument_is_gone(self):
        with pytest.raises(TypeError):
            ExperimentRunner(batch_episodes=8)
        with pytest.raises(TypeError):
            execute_task(_cell(MINI), None, False, 8)
