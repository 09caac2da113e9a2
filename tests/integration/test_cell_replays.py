"""A cell replays its workloads one ``Simulator.run`` each.

``execute_task`` builds one scheduler per cell (trained once if asked)
and replays ``task.workloads`` in order through it. The end-to-end
benchmark wraps ``Simulator.run`` to count replays and check per-job
invariants, so these tests wrap it the same way.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.api.registry import WORKLOADS, register_workload
from repro.core.mrsch import MRSchScheduler
from repro.core.prior import guided_scores
from repro.dist import QueueWorker, WorkQueue, ensure_enqueued
from repro.exp import ExperimentRunner
from repro.exp.tasks import execute_task
from repro.experiments.harness import make_method, prepare_base_trace, train_method
from repro.sched.base import SchedulingContext
from repro.sim.episode import EpisodeState
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from tests.integration._cells import MINI, S1_TO_S5, THETA, cell


@pytest.fixture
def sim_calls(monkeypatch):
    """Every ``Simulator.run`` made while the test runs:
    ``(scheduler name, jobs in, result out)``."""
    calls: list[tuple] = []
    run = Simulator.run

    def logged(self, jobs):
        result = run(self, jobs)
        calls.append((self.scheduler.name, jobs, result))
        return result

    monkeypatch.setattr(Simulator, "run", logged)
    return calls


#: Smallest gap allowed between the best and second-best final score of
#: any decision (exact ties aside, which every path breaks by slot
#: order): three orders above the ~1e-12 by which the reassociated
#: scoring paths of the README's reassociation table deviate.
MIN_MARGIN = 1e-9

#: the pure-DFP policy of the paper: no prior settles anything, so every
#: window with more than one job is scored
PURE_DFP = (("prior_weight", 0.0),)


@pytest.fixture
def margins(monkeypatch):
    """Top-two margin of the final scores of every MRSch decision the
    network scored — the guided policy's combined scores, or the pure
    one's raw scores. Settled and explored decisions have none."""
    seen: list[float] = []
    apply = MRSchScheduler._apply_decision

    def spy(self, window, ctx, staged, scores):
        job = apply(self, window, ctx, staged, scores)
        if scores is not None:
            _, _, mask, prior, _ = staged
            final = (
                guided_scores(self.prior_weight, prior, scores, mask)
                if self.prior_weight > 0.0
                else scores[: len(window)]
            )
            ranked = np.sort(final[np.isfinite(final)])
            if ranked.size > 1:
                seen.append(float(ranked[-1] - ranked[-2]))
        return job

    monkeypatch.setattr(MRSchScheduler, "_apply_decision", spy)
    return seen


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


class TestCellEqualsSequentialReplays:
    @pytest.mark.parametrize(
        "config, train, extra",
        [
            (MINI, True, ()),
            (THETA, False, ()),
            (MINI, True, PURE_DFP),
            (THETA, False, PURE_DFP),
        ],
        ids=[
            "mini-theta-trained", "theta-untrained",
            "mini-theta-trained-pure-dfp", "theta-untrained-pure-dfp",
        ],
    )
    def test_cell_equals_five_sequential_replays(
        self, config, train, extra, sim_calls
    ):
        """``execute_task`` starts every job when, and only when, a
        hand-built build → train → replay of the cell does."""
        task = cell(config, train=train, extra=extra)
        expected = _five_sequential_replays(task)
        reference_calls = len(sim_calls)

        result = execute_task(task)

        replays = [r for _, _, r in sim_calls[reference_calls:]][-len(S1_TO_S5):]
        assert [_outcome(r) for r in replays] == [_outcome(e) for e in expected]
        assert [result.metrics[w].full_dict() for w in S1_TO_S5] == [
            e.metrics.full_dict() for e in expected
        ]


class TestScoreMargins:
    @pytest.mark.parametrize(
        "config, train, extra, min_scored",
        [
            # Under the guided policy the prior settles most windows
            # before the network is asked; on the mini machine, all.
            (MINI, True, (), 0),
            (THETA, False, (), 8),
            (MINI, True, PURE_DFP, 20),
            (THETA, False, PURE_DFP, 18),
        ],
        ids=[
            "mini-theta-trained", "theta-untrained",
            "mini-theta-trained-pure-dfp", "theta-untrained-pure-dfp",
        ],
    )
    def test_no_scored_decision_is_a_near_tie(
        self, config, train, extra, min_scored, margins
    ):
        """No decision of a cell — training and evaluation — has a
        nonzero top-two margin that a ~1e-12 reassociation could flip,
        and enough of them were scored for the audit to mean something."""
        execute_task(cell(config, train=train, extra=extra))
        assert len(margins) >= min_scored
        nonzero = [m for m in margins if m != 0.0]
        assert not margins or (nonzero and min(nonzero) >= MIN_MARGIN)


class TestEachWorkloadIsOneReplay:
    def test_every_workload_is_a_simulator_run_that_keeps_the_per_job_invariants(
        self, sim_calls
    ):
        """What benchmarks/e2e/trace.py sees through its ``Simulator.run``
        wrapper — ``(self, jobs)`` in, the replay's result out — and what
        check.py ``simulation_problems`` asks of it, per workload."""
        result = execute_task(cell(MINI))
        assert [name for name, _, _ in sim_calls] == ["mrsch"] * len(S1_TO_S5)
        assert [r.metrics.full_dict() for _, _, r in sim_calls] == [
            result.metrics[w].full_dict() for w in S1_TO_S5
        ]
        for _, submitted, replay in sim_calls:
            assert sorted(j.job_id for j in replay.jobs) == sorted(
                j.job_id for j in submitted
            )
            for job in replay.jobs:
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
            execute_task(cell(MINI))
        (agent,) = agents
        layers = [
            layer
            for _, net in agent.network._branches()
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


def _replayed(calls) -> list[str]:
    """The scheduler of every ``Simulator.run`` a cell made."""
    return [name for name, _, _ in calls]


class TestOneReplayPerWorkload:
    def test_nine_workloads_run_as_nine_replays(
        self, sim_calls, four_more_workloads
    ):
        workloads = S1_TO_S5 + four_more_workloads
        result = execute_task(cell(MINI, workloads=workloads))
        assert _replayed(sim_calls) == ["mrsch"] * 9
        assert tuple(result.metrics) == workloads
        # L6 is S1 under another name: the same jobs replayed again.
        assert result.metrics["L6"].full_dict() == result.metrics["S1"].full_dict()

    def test_two_workloads_are_two_replays(self, sim_calls):
        execute_task(cell(MINI, workloads=("S1", "S3")))
        assert _replayed(sim_calls) == ["mrsch"] * 2

    def test_one_workload_is_one_replay(self, sim_calls):
        execute_task(cell(MINI, workloads=("S3",)))
        assert _replayed(sim_calls) == ["mrsch"]

    @pytest.mark.parametrize("method", ["heuristic", "optimization", "scalar_rl"])
    def test_every_policy_replays_each_workload_once(self, method, sim_calls):
        result = execute_task(cell(MINI, method=method, workloads=("S1", "S3", "S5")))
        assert len(sim_calls) == 3
        assert [r.metrics.full_dict() for _, _, r in sim_calls] == [
            result.metrics[w].full_dict() for w in ("S1", "S3", "S5")
        ]


class TestTheInstanceOverhead:
    """A cell replays with one scheduling context per ``Simulator.run``
    and without the Eq. 1 goal log, which nothing in it reads."""

    @pytest.mark.parametrize("method", ["heuristic", "mrsch"])
    def test_one_context_per_replay(self, method, sim_calls, monkeypatch):
        built = []
        post_init = SchedulingContext.__post_init__

        def counted(self):
            built.append(len(sim_calls))
            post_init(self)

        monkeypatch.setattr(SchedulingContext, "__post_init__", counted)
        execute_task(cell(MINI, method=method, workloads=("S1", "S3", "S5")))
        assert len(sim_calls) == 3
        # exactly one context per replay, built while that replay runs
        assert built == [0, 1, 2]
        assert all(r.n_scheduling_instances > 1 for _, _, r in sim_calls)

    def test_the_public_context_is_new_on_every_call(self, mini_system):
        """Callers that drive the loop themselves read ``ctx.started``
        per instance, so ``context()`` never hands out a used one."""
        state = EpisodeState(mini_system)
        state.load([])
        first, second = state.context(), state.context()
        assert first is not second
        assert first.started is not second.started

    @pytest.mark.parametrize("method", ["heuristic", "mrsch"])
    def test_the_timeline_does_not_move_a_cell(self, method, monkeypatch):
        """Recording on or off, a cell's metrics are the same; only a
        recorded replay fills the goal log, one goal per instance."""
        logged = []  # (instances, goals logged) per replay; None: no log
        run = Simulator.run

        def counting(self, jobs):
            result = run(self, jobs)
            series = getattr(self.scheduler, "goal_series", None)
            goals = None if series is None else len(series()[0])
            logged.append((result.n_scheduling_instances, goals))
            return result

        monkeypatch.setattr(Simulator, "run", counting)
        task = cell(MINI, method=method, workloads=("S1", "S3"))
        lean = execute_task(task)
        build = Simulator.__init__

        def recording(self, system, scheduler, record_timeline=False):
            build(self, system, scheduler, record_timeline=True)

        monkeypatch.setattr(Simulator, "__init__", recording)
        full = execute_task(task)
        if method == "heuristic":
            assert [goals for _, goals in logged] == [None] * 4
        else:
            assert [goals for _, goals in logged[:2]] == [0, 0]
            assert all(goals == n and n > 1 for n, goals in logged[2:])
        assert {w: m.full_dict() for w, m in full.metrics.items()} == {
            w: m.full_dict() for w, m in lean.metrics.items()
        }


class TestNoBatchingArgument:
    def test_queue_context_written_by_older_callers_is_ignored(
        self, sim_calls, tmp_path
    ):
        """The benchmark's traced queue run (and any queue directory an
        older coordinator sealed) still carries ``trace_dir``,
        ``trace_compact`` and ``batch_episodes`` keys in its meta and
        manifest context: it must drain, and they mean nothing."""
        task = cell(MINI, workloads=("S1", "S3", "S5"))
        context = {"trace_dir": None, "trace_compact": False, "batch_episodes": 1}
        queue = WorkQueue(tmp_path / "queue")
        queue.write_meta(**context)
        manifest = ensure_enqueued(queue, [task], context=context)
        assert manifest.context["batch_episodes"] == 1
        report = QueueWorker(
            queue, worker_id="solo", spool_dir=tmp_path / "spool"
        ).run()
        assert report.executed == [task.key()]
        assert len(sim_calls) == 3
        merged = queue.merged_results()[task.key()]
        inline = execute_task(task)
        assert {w: m.full_dict() for w, m in merged.metrics.items()} == {
            w: m.full_dict() for w, m in inline.metrics.items()
        }

    def test_the_argument_is_gone(self):
        with pytest.raises(TypeError):
            ExperimentRunner(batch_episodes=8)
        with pytest.raises(TypeError):
            execute_task(cell(MINI), None, False, 8)
