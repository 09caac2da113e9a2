"""The network runs only when it can change the pick (``_settle``).

``MRSchScheduler.prepare_decision`` settles a window before any encode
or forward pass when no score vector could vote its pick out: one
candidate, or — under the guided policy — a prior lead wider than twice
the tie-break cap. The oracle throughout is a test-only subclass whose
rule never settles, i.e. the scheduler as it was when every decision
was scored; nothing in ``src/`` keeps that path.

Each condition of the rule has a test here (or in
``tests/integration/test_settled_decisions.py``) that fails when the
condition is deleted: single-candidate
(``test_one_candidate_is_forced_without_the_network``), margin
(``test_near_tie_in_the_prior_is_left_to_the_network`` and the
property), ``prior_weight > 0``
(``test_pure_dfp_scores_every_multi_candidate_window``), recorder
(``test_a_recorder_sees_the_scores_of_every_decision``), training
(``test_training_skips_only_the_forward``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import (
    BURST_BUFFER,
    NODE,
    ResourcePool,
    ResourceSpec,
    SystemConfig,
)
from repro.core.encoding import IncrementalStateEncoder
from repro.core.mrsch import MRSchScheduler
from repro.core.prior import DFP_TIEBREAK_SCALE
from repro.eval.recorder import DecisionTraceRecorder
from repro.sched.fcfs import FCFSScheduler
from repro.sched.jobqueue import JobQueue
from repro.sched.scalar_rl import ScalarRLScheduler
from repro.sim.simulator import Simulator
from tests.conftest import make_job
from tests.unit._sched_reference import as_reference
from tests.unit.test_base_sched import make_ctx
from tests.unit.test_mrsch import small_mrsch

W = 4
#: the ``tiny_system`` fixture's machine, for the property (hypothesis
#: does not re-run function-scoped fixtures per example)
TINY = SystemConfig(
    resources=(ResourceSpec(NODE, 16, "node"), ResourceSpec(BURST_BUFFER, 8, "TB"))
)


class NeverSettles(MRSchScheduler):
    """The always-score oracle: same prior, no shortcut."""

    def _settle(self, window, ctx):
        prior = self._prior(window, ctx) if self.prior_weight > 0.0 else None
        return None, prior


def as_oracle(sched: MRSchScheduler) -> MRSchScheduler:
    sched.__class__ = NeverSettles
    return sched


@pytest.fixture
def calls(monkeypatch):
    """How often the state was encoded and the network run."""
    seen = {"encode": 0, "forward": 0}
    encode = IncrementalStateEncoder.encode_decision
    score = MRSchScheduler.score_decision

    def counted_encode(self, *args):
        seen["encode"] += 1
        return encode(self, *args)

    def counted_score(self, inputs):
        seen["forward"] += 1
        return score(self, inputs)

    monkeypatch.setattr(IncrementalStateEncoder, "encode_decision", counted_encode)
    monkeypatch.setattr(MRSchScheduler, "score_decision", counted_score)
    return seen


def _decide(sched, window, ctx, scores):
    """One decision with the network's answer dictated by the test."""
    inputs = sched.prepare_decision(window, ctx)
    return sched.apply_decision(window, ctx, scores if inputs.needs_scores else None)


# -- the property -------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
#: score vectors of every kind a network could emit: arbitrary finite
#: values, and the adversarial ones — all mass on one slot, sign flips
score_vectors = st.one_of(
    st.lists(finite, min_size=W, max_size=W),
    st.lists(st.sampled_from([-1.0, 0.0, 1.0, 1e-300, -1e300]), min_size=W, max_size=W),
)
jobs_strategy = st.lists(
    st.tuples(st.integers(1, 16), st.integers(0, 8)), min_size=1, max_size=W
)


@pytest.mark.filterwarnings("ignore:overflow")  # in slots the mask drops
@settings(max_examples=300, deadline=None)
@given(
    requests=jobs_strategy,
    held=st.tuples(st.integers(0, 16), st.integers(0, 8)),
    goal=st.floats(0.0, 1.0),
    weight=st.sampled_from([0.0, 0.01, 0.5, 2.0, 50.0, 1e15]),
    scores=score_vectors,
    per_job=st.booleans(),
)
def test_settled_action_equals_the_full_guided_argmax(
    requests, held, goal, weight, scores, per_job
):
    """Whatever finite scores the network could return, a decision the
    rule settles is the decision the always-score scheduler makes — with
    the columnar prior, or (``per_job``) both sides on the per-job one."""
    tiny_system = TINY
    pool = ResourcePool(tiny_system)
    if any(held):
        pool.allocate(make_job(job_id=99, nodes=held[0], bb=held[1]), now=0.0)
    window = [
        make_job(job_id=i + 1, submit=float(i), nodes=nodes, bb=bb)
        for i, (nodes, bb) in enumerate(requests)
    ]
    scores = np.array(scores)
    picks = []
    for build in (small_mrsch, lambda *a, **k: as_oracle(small_mrsch(*a, **k))):
        sched = build(tiny_system, prior_weight=weight)
        if per_job:
            as_reference(sched)
        sched._goal = np.array([goal, 1.0 - goal])
        ctx = make_ctx(tiny_system, pool, window)
        picks.append(_decide(sched, window, ctx, scores))
    assert picks[0] is picks[1]


def test_property_has_teeth_both_ways(tiny_system):
    """The strategy above reaches settled and open windows alike."""
    pool = ResourcePool(tiny_system)
    sched = small_mrsch(tiny_system)
    clear = [make_job(job_id=1, nodes=12), make_job(job_id=2, nodes=2)]
    tied = [make_job(job_id=1, nodes=2), make_job(job_id=2, nodes=2)]
    assert sched._settle(clear, make_ctx(tiny_system, pool, clear))[0] == 1
    assert sched._settle(tied, make_ctx(tiny_system, pool, tied))[0] is None


# -- one test per condition ---------------------------------------------------


@pytest.mark.parametrize("weight", [2.0, 0.0], ids=["guided", "pure-dfp"])
def test_one_candidate_is_forced_without_the_network(tiny_system, calls, weight):
    sched = small_mrsch(tiny_system, prior_weight=weight)
    pool = ResourcePool(tiny_system)
    window = [make_job(job_id=1, nodes=20)]  # does not even fit
    ctx = make_ctx(tiny_system, pool, window)
    assert sched.select(window, ctx) is window[0]
    assert calls == {"encode": 0, "forward": 0}
    assert sched.decisions_scored == 0


def test_clear_prior_lead_is_settled_without_the_network(tiny_system, calls):
    sched = small_mrsch(tiny_system)
    pool = ResourcePool(tiny_system)
    pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
    window = [make_job(job_id=1, nodes=10), make_job(job_id=2, nodes=2)]
    ctx = make_ctx(tiny_system, pool, window)
    sched.begin_instance(ctx)
    assert sched.select(window, ctx) is window[1]  # the one that fits
    assert calls == {"encode": 0, "forward": 0}


def test_near_tie_in_the_prior_is_left_to_the_network(tiny_system, calls):
    """Equal demands tie the prior exactly: the scores alone decide,
    either way round."""
    pool = ResourcePool(tiny_system)
    window = [make_job(job_id=1, nodes=2), make_job(job_id=2, nodes=2)]
    for favoured in (0, 1):
        sched = small_mrsch(tiny_system)
        ctx = make_ctx(tiny_system, pool, window)
        scores = np.zeros(W)
        scores[favoured] = 1.0
        assert _decide(sched, window, ctx, scores) is window[favoured]
        assert sched.decisions_scored == 1
    assert calls["encode"] == 2


def test_lead_just_inside_the_cap_is_open_just_outside_is_settled(tiny_system):
    """The threshold sits at twice the tie-break cap (plus the slack)."""
    sched = small_mrsch(tiny_system, prior_weight=1.0)
    pool = ResourcePool(tiny_system)
    window = [make_job(job_id=1, nodes=1), make_job(job_id=2, nodes=2)]
    ctx = make_ctx(tiny_system, pool, window)
    cap = DFP_TIEBREAK_SCALE
    for lead, settled in ((2 * cap, False), (2 * cap * (1 + 1e-6), True)):
        sched._prior = lambda window, ctx, lead=lead: np.array([1.0 + lead, 1.0, 0, 0])
        action, _ = sched._settle(window, ctx)
        assert (action == 0) if settled else (action is None)


@pytest.mark.parametrize("weight", [0.0, -1.0])
@pytest.mark.parametrize("favoured", [0, 1])
def test_pure_dfp_scores_every_multi_candidate_window(
    tiny_system, calls, weight, favoured
):
    """With ``prior_weight <= 0`` the prior's clear favourite is not the
    policy's — the scores are the decision, and no prior is computed."""
    sched = small_mrsch(tiny_system, prior_weight=weight)
    sched._prior = None  # calling it would raise
    pool = ResourcePool(tiny_system)
    pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
    window = [make_job(job_id=1, nodes=10), make_job(job_id=2, nodes=2)]
    ctx = make_ctx(tiny_system, pool, window)
    scores = np.zeros(W)
    scores[favoured] = 1.0
    assert _decide(sched, window, ctx, scores) is window[favoured]
    assert calls["encode"] == 1 and sched.decisions_scored == 1


def test_a_recorder_sees_the_scores_of_every_decision(tiny_system, calls):
    """Tracing turns the rule off: one-candidate and clear-lead windows
    are encoded and scored, and the trace carries state, prior and
    combined scores for each."""
    sched = small_mrsch(tiny_system)
    sched.decision_recorder = DecisionTraceRecorder()
    pool = ResourcePool(tiny_system)
    pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
    for window in (
        [make_job(job_id=1, nodes=2)],
        [make_job(job_id=1, nodes=10), make_job(job_id=2, nodes=2)],
    ):
        ctx = make_ctx(tiny_system, pool, window)
        sched.select(window, ctx)
        features = sched.decision_features(window, ctx)
        assert features["state"].shape == (sched.encoder.state_dim,)
        assert features["prior"] is not None and features["scores"] is not None
    assert calls == {"encode": 2, "forward": 2}
    assert sched.decisions_scored == 2


def test_training_skips_only_the_forward(tiny_system, calls):
    """A settled training decision still encodes, draws, decays ε and
    records its experience — exactly like the always-score scheduler."""
    pool = ResourcePool(tiny_system)
    window = [make_job(job_id=1, nodes=2)]
    outcomes, scored = [], []
    for build in (small_mrsch, lambda *a, **k: as_oracle(small_mrsch(*a, **k))):
        sched = build(tiny_system, seed=5)
        sched.training = True
        sched.agent.epsilon = 0.5
        sched.start_episode()
        for _ in range(12):
            sched.select(window, make_ctx(tiny_system, pool, window))
        outcomes.append(
            (
                sched.agent._sample_rng.bit_generator.state,
                sched.agent.epsilon,
                [(s.tobytes(), m.tobytes(), g.tobytes(), a, t)
                 for s, m, g, a, t in sched._steps],
            )
        )
        scored.append(sched.decisions_scored)
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][2]) == 12
    assert calls["encode"] == 24
    # the oracle ran the network whenever it did not explore; the rule never
    assert scored[0] == 0 < scored[1] == calls["forward"]


def test_non_finite_scores_no_longer_steer_a_settled_window(tiny_system):
    """The documented caveat: ``argmax`` picks the first NaN, so a
    diverged network used to override even a clear prior."""
    pool = ResourcePool(tiny_system)
    pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
    window = [make_job(job_id=1, nodes=10), make_job(job_id=2, nodes=2)]
    scores = np.array([np.nan, 0.0, 0.0, 0.0])
    rule = small_mrsch(tiny_system)
    oracle = as_oracle(small_mrsch(tiny_system))
    assert _decide(rule, window, make_ctx(tiny_system, pool, window), scores) is window[1]
    assert _decide(oracle, window, make_ctx(tiny_system, pool, window), scores) is window[0]


# -- supporting pieces --------------------------------------------------------


class TestWindowRequests:
    def test_rows_follow_the_window_through_tombstones(self, tiny_system):
        queue = JobQueue(tiny_system.names)
        jobs = [make_job(job_id=i, nodes=i, bb=i % 3) for i in range(1, 7)]
        for job in jobs:
            queue.append(job)
        queue.remove(jobs[0])
        queue.remove(jobs[2])
        window = queue.window(3)
        assert [j.job_id for j in window] == [2, 4, 5]
        rows = queue.window_requests(window)
        assert rows.tolist() == [[2.0, 2.0], [4.0, 1.0], [5.0, 2.0]]
        # consecutive slots come back as a view of the queue's columns
        assert queue.window_requests(window[1:]).base is not None
        assert queue.window_requests([]).shape == (0, 2)

    def test_a_job_that_is_not_queued_is_an_error(self, tiny_system):
        queue = JobQueue(tiny_system.names)
        queue.append(make_job(job_id=1))
        with pytest.raises(IndexError):
            queue.window_requests([make_job(job_id=2)])

    def test_prior_is_the_same_from_either_queue_form(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=9, bb=3), now=0.0)
        window = [make_job(job_id=i, nodes=2 * i, bb=i) for i in (1, 2, 3, 4)]
        sched = small_mrsch(tiny_system)
        ctx = make_ctx(tiny_system, pool, window)
        columnar = sched._prior(window, ctx)
        listed = as_reference(small_mrsch(tiny_system))._prior(window, ctx)
        assert columnar.tobytes() == listed.tobytes()


class TestDecisionCounts:
    def test_counts_restart_with_the_episode(self, tiny_system):
        burst = [make_job(job_id=i, nodes=2) for i in range(1, 7)]  # all at t=0
        sched = small_mrsch(tiny_system, prior_weight=0.0)
        sim = Simulator(tiny_system, sched)
        sim.run(burst)
        # windows of 4, 4, 4, 3, 2 jobs are scored; the last job is alone
        assert (sched.decisions, sched.decisions_scored) == (6, 5)
        sim.run(burst)
        assert (sched.decisions, sched.decisions_scored) == (6, 5)

    def test_policies_without_a_network_score_nothing(self, tiny_system, tiny_trace):
        sched = FCFSScheduler(window_size=W)
        Simulator(tiny_system, sched).run(tiny_trace)
        assert 0 < sched.decisions <= len(tiny_trace)
        assert sched.decisions_scored == sched.decisions_overruled == 0

    def test_scores_that_flip_a_near_tie_are_one_overrule(self, tiny_system):
        """A scored guided pick counts iff it leaves the prior's arg-max."""
        pool = ResourcePool(tiny_system)
        window = [make_job(job_id=1, nodes=1), make_job(job_id=2, nodes=2)]
        sched = small_mrsch(tiny_system)
        # the prior prefers the smaller job by 2 * 0.1 / 16, inside twice the cap
        sched._goal = np.array([0.1, 0.9])
        for favoured in (0, 1, 0):
            scores = np.zeros(W)
            scores[favoured] = 1.0
            ctx = make_ctx(tiny_system, pool, window)
            assert _decide(sched, window, ctx, scores) is window[favoured]
        assert (sched.decisions_scored, sched.decisions_overruled) == (3, 1)

    def test_settled_forced_explored_and_pure_dfp_picks_never_count(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
        clear = [make_job(job_id=1, nodes=10), make_job(job_id=2, nodes=2)]  # prior: slot 1
        alone = [make_job(job_id=3, nodes=10)]
        against = np.array([1.0, 0.0, 0.0, 0.0])
        pure, guided = small_mrsch(tiny_system, prior_weight=0.0), small_mrsch(tiny_system)
        for sched in (pure, guided):
            for window in (clear, alone):
                _decide(sched, window, make_ctx(tiny_system, pool, window), against)
        explorer = small_mrsch(tiny_system, seed=3)
        explorer.training = True
        explorer.agent.epsilon = 1.0
        picks = [explorer.select(clear, make_ctx(tiny_system, pool, clear)) for _ in range(8)]
        # teeth: pure DFP scored a pick off the prior, and exploration made one
        assert pure.decisions_scored == 1 and any(p is clear[0] for p in picks)
        assert [s.decisions_overruled for s in (pure, guided, explorer)] == [0, 0, 0]


class TestScalarRLLoneCandidate:
    def test_evaluation_returns_it_without_encode_or_forward(
        self, tiny_system, monkeypatch
    ):
        sched = ScalarRLScheduler(tiny_system, window_size=W, seed=0)
        pool = ResourcePool(tiny_system)
        window = [make_job(job_id=1, nodes=1)]
        ctx = make_ctx(tiny_system, pool, list(window))
        obs, mask = sched.encode(window, ctx)  # what the full path picks
        assert int(np.argmax(sched._probabilities(obs, mask))) == 0
        monkeypatch.setattr(sched, "encode", None)
        monkeypatch.setattr(sched.policy, "forward", None)
        assert sched.select(window, ctx) is window[0]
        assert sched.decisions_scored == 0

    def test_training_still_samples_through_the_policy(self, tiny_system):
        sched = ScalarRLScheduler(tiny_system, window_size=W, seed=0)
        sched.training = True
        pool = ResourcePool(tiny_system)
        window = [make_job(job_id=1, nodes=1)]
        before = sched.rng.bit_generator.state
        assert sched.select(window, make_ctx(tiny_system, pool, list(window))) is window[0]
        assert sched.rng.bit_generator.state != before
        assert len(sched._episode) == 1 and sched.decisions_scored == 1
