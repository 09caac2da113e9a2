"""Settling decisions before the network runs changes no schedule.

End-to-end counterparts of ``tests/unit/test_mrsch_settle.py``. The
oracle is the same scheduler with every decision scored: the test-only
``NeverSettles`` subclass, whose ``_settle`` settles nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mrsch import MRSchScheduler
from repro.core.prior import guided_scores
from repro.experiments.harness import make_method, prepare_base_trace, train_method
from repro.sim.episode import EpisodeState
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from tests.integration._cells import MINI, S1_TO_S5, THETA
from tests.unit.test_mrsch_settle import as_oracle


def _times(result) -> list[tuple]:
    return [(job.job_id, job.start_time, job.end_time) for job in result.jobs]


@pytest.fixture(
    scope="module",
    params=[(MINI, True), (THETA, False)],
    ids=["mini-theta-trained", "theta-loaded"],
)
def replay(request):
    """``(system, scheduler, S1–S5 job sets)`` — a trained agent on the
    mini machine, an untrained one at the paper's geometry, both loaded
    enough that windows hold several jobs."""
    config, train = request.param
    system = config.system()
    sched = make_method("mrsch", system, config)
    if train:
        train_method(sched, system, config)
    base = prepare_base_trace(config)
    jobsets = [build_workload(w, base, system, seed=config.seed) for w in S1_TO_S5]
    return system, sched, jobsets


class TestSettledEqualsScoredAtEveryDecision:
    def test_replays_start_every_job_when_the_oracle_does(self, replay, monkeypatch):
        system, sched, jobsets = replay
        sim = Simulator(system, sched)

        plain, made, scored = [], 0, 0
        for jobs in jobsets:
            plain.append(_times(sim.run(jobs)))
            made += sched.decisions
            scored += sched.decisions_scored
        assert scored < made / 4  # most decisions never reached the network

        picked = []  # the oracle's final score of each job it picked
        apply = MRSchScheduler._apply_decision

        def spy(self, window, ctx, staged, scores):
            job = apply(self, window, ctx, staged, scores)
            _, _, mask, prior, _ = staged
            final = (
                guided_scores(self.prior_weight, prior, scores, mask)
                if self.prior_weight > 0.0
                else scores
            )
            picked.append(final[next(i for i, j in enumerate(window) if j is job)])
            return job

        monkeypatch.setattr(MRSchScheduler, "_apply_decision", spy)
        scored_always, oracle_made = [], 0
        rule = type(sched)
        as_oracle(sched)
        try:
            for jobs in jobsets:
                scored_always.append(_times(sim.run(jobs)))
                assert sched.decisions_scored == sched.decisions
                oracle_made += sched.decisions
        finally:
            sched.__class__ = rule
        assert oracle_made == len(picked) == made
        assert np.isfinite(picked).all()

        assert plain == scored_always


class TestTrainingKeepsItsStreams:
    def test_agent_after_a_curriculum_equals_the_always_score_agent(self):
        """Three training episodes: the ε-greedy generator, ε, every
        stored experience and every trained weight, bit for bit."""
        system = MINI.system()
        agents = []
        for oracle in (False, True):
            sched = make_method("mrsch", system, MINI)
            if oracle:
                as_oracle(sched)
            train_method(sched, system, MINI)
            agents.append(sched.agent)
        rule, always = agents
        assert rule._sample_rng.bit_generator.state == always._sample_rng.bit_generator.state
        assert rule.epsilon == always.epsilon < rule.config.epsilon_start
        assert len(rule.replay) == len(always.replay) > 0
        for ours, theirs in zip(rule.replay, always.replay):
            assert (ours.action, ours.terminal) == (theirs.action, theirs.terminal)
            for field in ("state", "measurement", "goal", "target"):
                assert getattr(ours, field).tobytes() == getattr(theirs, field).tobytes()
        ours, theirs = rule.state_dict(), always.state_dict()
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert np.array_equal(ours[key], theirs[key]), key


class TestRestoreAmongSkippedEncodes:
    @pytest.mark.parametrize(
        "workload, fork_at",
        # S1: thirty settled decisions and not one encode before the
        # fork, three scored ones after. S4: forks between the two
        # instances that score, settled decisions on either side.
        [("S1", 40), ("S4", 55)],
    )
    def test_forked_replay_is_the_always_score_replay(self, workload, fork_at):
        """Snapshot while the incremental encoder is behind the pool (it
        drains its dirty tracker only when a decision is scored), finish,
        restore, finish again: the same future twice, and the one the
        always-score scheduler reaches without stopping."""
        system = THETA.system()
        jobs = build_workload(
            workload, prepare_base_trace(THETA), system, seed=THETA.seed
        )
        oracle = as_oracle(make_method("mrsch", system, THETA))
        expected = _times(Simulator(system, oracle).run(jobs))

        sched = make_method("mrsch", system, THETA)
        state = EpisodeState(system)

        def instance() -> tuple[int, int]:
            """One scheduling instance: ``(decisions, scored)`` in it."""
            before = (sched.decisions, sched.decisions_scored)
            sched.schedule(state.context())
            state.end_instance()
            return (sched.decisions - before[0], sched.decisions_scored - before[1])

        state.load(jobs)
        sched.reset()
        head = []
        for _ in range(fork_at):
            assert state.advance()
            head.append(instance())
        assert sum(made - scored for made, scored in head) > 0
        snap = state.snapshot()
        reserved = sched.reserved_job

        futures = []
        for _ in range(2):
            state.restore(snap)
            sched.reserved_job = reserved
            tail = []
            while state.advance():
                tail.append(instance())
            assert sum(scored for _, scored in tail) > 0
            futures.append((tail, _times(state.finish())))
        assert futures[0] == futures[1]
        assert futures[0][1] == expected
