"""The batch scorer scores live decisions again.

``DFPAgent.action_scores_batch`` (over ``DFPNetwork.forward_infer``)
scores many decision points in one pass, each row with its own goal.
Nothing in the package calls it; ``benchmarks/e2e/trace.py`` wraps it
by name. Here every decision a live MRSch replay put to the network is
captured (state, measurement, goal, mask, prior, the live scores and
the pick) and the whole set is scored again in one batch. The batch
must match the live scores within the re-association tolerance of the
unfolded contraction (measured near 1e-14 on scores of magnitude ~2),
and the live decision rule applied to its rows must reproduce every
pick.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.mrsch import MRSchScheduler
from repro.core.prior import guided_scores
from repro.experiments.harness import make_method, prepare_base_trace
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from tests.integration._cells import S1_TO_S5, THETA

#: the paper's machine over a trace long enough that both policies put
#: several decisions of every workload to the network
LONG_THETA = dataclasses.replace(THETA, n_jobs=120)
#: batched and per-decision scoring contract the same predictions in
#: different orders
TOLERANCE = 1e-12
POLICIES = {"guided": {}, "pure": {"prior_weight": 0.0}}


class Decision(NamedTuple):
    state: np.ndarray
    measurement: np.ndarray
    goal: np.ndarray
    mask: np.ndarray
    prior: np.ndarray | None
    scores: np.ndarray
    action: int


class Replay(NamedTuple):
    sched: MRSchScheduler
    decisions: list[Decision]

    def batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.stack([getattr(d, f) for d in self.decisions])
            for f in ("state", "measurement", "goal")
        )


def rule(sched: MRSchScheduler, decision: Decision, scores: np.ndarray) -> int:
    """The pick :meth:`MRSchScheduler._apply_decision` makes from ``scores``."""
    if sched.prior_weight > 0.0:
        return int(np.argmax(
            guided_scores(sched.prior_weight, decision.prior, scores, decision.mask)
        ))
    return int(np.argmax(np.where(decision.mask, scores, -np.inf)))


def capture(sched: MRSchScheduler, system, jobs) -> list[Decision]:
    """Every decision of one replay that the network scored."""
    decisions: list[Decision] = []
    asked: list[tuple] = []
    score = MRSchScheduler._score_decision
    apply = MRSchScheduler._apply_decision

    def spy_score(self, state, measurement):
        scores = score(self, state, measurement)
        # The encoder patches one shared buffer: copy before it moves.
        asked.append((state.copy(), measurement.copy(), self._goal.copy(), scores.copy()))
        return scores

    def spy_apply(self, window, ctx, staged, scores):
        job = apply(self, window, ctx, staged, scores)
        if scores is not None:
            state, measurement, goal, live = asked.pop()
            _, _, mask, prior, _ = staged
            action = next(i for i, j in enumerate(window) if j is job)
            decisions.append(Decision(
                state, measurement, goal, mask.copy(),
                None if prior is None else prior.copy(), live, action,
            ))
        return job

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MRSchScheduler, "_score_decision", spy_score)
        patch.setattr(MRSchScheduler, "_apply_decision", spy_apply)
        Simulator(system, sched).run(jobs)
    assert not asked
    return decisions


@pytest.fixture(scope="module")
def base_trace():
    return prepare_base_trace(LONG_THETA)


@pytest.fixture(
    scope="module",
    params=[(p, w) for p in POLICIES for w in S1_TO_S5],
    ids=lambda param: "-".join(param),
)
def replay(request, base_trace) -> Replay:
    policy, workload = request.param
    system = LONG_THETA.system()
    sched = make_method("mrsch", system, LONG_THETA, **POLICIES[policy])
    jobs = build_workload(workload, base_trace, system, seed=LONG_THETA.seed)
    decisions = capture(sched, system, jobs)
    assert decisions, "the network was never asked"
    assert len(decisions) == sched.decisions_scored
    return Replay(sched, decisions)


class TestBatchEqualsLive:
    def test_rows_are_the_live_scores(self, replay):
        batched = replay.sched.agent.action_scores_batch(*replay.batch())
        live = np.stack([d.scores for d in replay.decisions])
        assert batched.shape == live.shape
        np.testing.assert_allclose(batched, live, rtol=0.0, atol=TOLERANCE)

    def test_the_live_rule_on_the_rows_makes_every_live_pick(self, replay):
        batched = replay.sched.agent.action_scores_batch(*replay.batch())
        picks = [rule(replay.sched, d, row) for d, row in zip(replay.decisions, batched)]
        assert picks == [d.action for d in replay.decisions]


def _pooled(base_trace, policy: str) -> Replay:
    """One scheduler's scored decisions over S1–S5, in replay order."""
    system = LONG_THETA.system()
    sched = make_method("mrsch", system, LONG_THETA, **POLICIES[policy])
    decisions = []
    for workload in S1_TO_S5:
        jobs = build_workload(workload, base_trace, system, seed=LONG_THETA.seed)
        decisions += capture(sched, system, jobs)
    return Replay(sched, decisions)


@pytest.fixture(scope="module")
def pooled(base_trace) -> Replay:
    return _pooled(base_trace, "pure")


class TestRowsAreIndependent:
    def test_rows_carry_goals_of_their_own(self, pooled):
        """Dynamic goals move between decisions, so one batch holds many."""
        _, _, goals = pooled.batch()
        assert len({goal.tobytes() for goal in goals}) > len(goals) // 2

    def test_a_row_is_scored_with_its_goal_not_its_neighbours(self, pooled):
        states, measurements, goals = pooled.batch()
        swapped = np.roll(goals, 1, axis=0)
        batched = pooled.sched.agent.action_scores_batch(states, measurements, swapped)
        one_by_one = np.stack([
            pooled.sched.agent.action_scores(s, m, g)
            for s, m, g in zip(states, measurements, swapped)
        ])
        np.testing.assert_allclose(batched, one_by_one, rtol=0.0, atol=TOLERANCE)
        assert not np.allclose(batched, np.stack([d.scores for d in pooled.decisions]))

    def test_order_and_batch_size_do_not_change_a_row(self, pooled):
        agent = pooled.sched.agent
        batch = pooled.batch()
        whole = agent.action_scores_batch(*batch)
        reversed_ = agent.action_scores_batch(*(a[::-1] for a in batch))[::-1]
        singles = np.concatenate([
            agent.action_scores_batch(*(a[i:i + 1] for a in batch))
            for i in range(len(whole))
        ])
        np.testing.assert_allclose(reversed_, whole, rtol=0.0, atol=TOLERANCE)
        np.testing.assert_allclose(singles, whole, rtol=0.0, atol=TOLERANCE)

    def test_the_batch_leaves_the_inputs_untouched(self, pooled):
        batch = pooled.batch()
        before = [a.copy() for a in batch]
        pooled.sched.agent.action_scores_batch(*batch)
        for after, kept in zip(batch, before):
            assert after.tobytes() == kept.tobytes()


class TestCheckpointedAgent:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_a_loaded_checkpoint_scores_the_batch_bit_for_bit(
        self, base_trace, policy, tmp_path
    ):
        recorded = _pooled(base_trace, policy)
        path = str(tmp_path / "agent.npz")
        recorded.sched.save(path)
        system = LONG_THETA.system()
        loaded = make_method("mrsch", system, LONG_THETA, seed=LONG_THETA.seed + 1,
                             **POLICIES[policy])
        batch = recorded.batch()
        assert not np.array_equal(
            loaded.agent.action_scores_batch(*batch),
            recorded.sched.agent.action_scores_batch(*batch),
        )
        loaded.load(path)
        np.testing.assert_array_equal(
            loaded.agent.action_scores_batch(*batch),
            recorded.sched.agent.action_scores_batch(*batch),
        )
        picks = [
            rule(loaded, d, row)
            for d, row in zip(recorded.decisions, loaded.agent.action_scores_batch(*batch))
        ]
        assert picks == [d.action for d in recorded.decisions]
