"""Lockstep multi-episode simulation with batched network scoring.

A grid evaluation (or a training sweep) runs N independent episodes; run
one at a time, every MRSch decision pays a one-window network call, so
the grid pays Python/NumPy dispatch and weight traffic N times over.
:class:`BatchedSimulator` advances N episodes *in lockstep*: each
episode keeps its own event clock and owns its own
:class:`~repro.sim.episode.EpisodeState`, but on every macro-step all
episodes currently paused at a staged decision are scored by ONE
``DFPAgent.action_scores_batch`` call over their stacked
(N_ready × window) inputs. The B=1 GEMV per decision becomes a B=N GEMM
whose weight traffic amortizes across the batch — the same dispatch
structure a GPU/array-API backend needs, which is why this substrate is
its precondition. A lane pauses only for a decision that needs scores:
one the policy settled without the network (a lone candidate, a clear
prior, an exploration draw) is applied inside the lane's own advance,
so a macro-step stacks only rows the GEMM can matter for.

The pause/resume mechanics ride on
:meth:`~repro.sched.base.Scheduler.schedule_gen`, the generator form of
the §III-C instance loop: a scheduler implementing the split
``prepare_decision``/``apply_decision`` protocol yields its staged
inputs at every network call; schedulers without the split protocol
never yield and simply run their episodes to completion sequentially on
the first advance (decision-identical, just unbatched).

Determinism: with inference-mode schedulers (no exploration) the
lockstep interleaving is decision-identical to N sequential
:meth:`~repro.sim.simulator.Simulator.run` calls — a decision depends
only on its own episode's state, and an episode paused at one decision
is resumed with scores for exactly that decision. Episodes that happen
to be the only ready lane on a macro-step are scored through the
policy's own B=1 path, so a batch of one is *bit*-identical to
sequential; stacked rows go through the batched forward pass, whose
float re-association differs from the B=1 path at the ~1e-12 level
(pinned in tests/unit/test_dfp.py) — far below every decision margin the
guided policy produces, and the end-to-end equality test holds the
batched substrate to the sequential decisions exactly. Training-mode
episodes share the agent's ε-greedy RNG stream, whose draw order the
interleaving changes; batched training collection is therefore opt-in
(see :func:`repro.core.training.train_episodes`) and documented as a
different-but-valid exploration stream, not a bit-identical replay.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.nn.network import InferenceWorkspace
from repro.obs import runtime as _obs_runtime
from repro.sched.base import DecisionInputs, Scheduler
from repro.sim.episode import EpisodeState, SimulationResult
from repro.sim.simulator import Simulator
from repro.workload.job import Job

__all__ = ["BatchedSimulator", "lockstep_lanes"]


def lockstep_lanes(scheduler: Scheduler, n: int) -> list[Scheduler] | None:
    """``scheduler`` plus ``n - 1`` lockstep clones of it, one per lane.

    ``None`` when the policy declares itself unsafe to batch
    (:meth:`~repro.sched.base.Scheduler.lockstep_clone`); the probe that
    finds out is kept as lane 2 rather than thrown away.
    """
    lanes = [scheduler]
    while len(lanes) < n:
        clone = scheduler.lockstep_clone()
        if clone is None:
            return None
        lanes.append(clone)
    return lanes


class _Episode:
    """One lockstep lane: a simulator plus its paused instance loop."""

    __slots__ = ("sim", "scheduler", "state", "gen", "pending")

    def __init__(self, sim: Simulator) -> None:
        #: brackets the lane's episode (:meth:`Simulator.run` with
        #: ``drive``), so a lane is one ``run`` call like a solo replay
        self.sim = sim
        self.scheduler = sim.scheduler
        self.state: EpisodeState = sim.state
        #: the live ``schedule_gen`` generator while an instance is
        #: paused at a staged decision; ``None`` between instances
        self.gen = None
        #: the :class:`DecisionInputs` awaiting scores; ``None`` once
        #: the episode's event queue drained
        self.pending: DecisionInputs | None = None

    def run_until_pause(self, scores: np.ndarray | None = None) -> None:
        """Advance until the next staged decision or the episode's end.

        ``scores`` resumes the pending decision (required when one is
        pending); the loop then drives events and scheduling instances
        until a scheduler pause or event-queue exhaustion.
        """
        gen = self.gen
        fresh = False
        while True:
            if gen is None:
                if not self.state.advance():
                    self.pending = None
                    self.gen = None
                    return
                gen = self.scheduler.schedule_gen(self.state.context())
                fresh = True
            try:
                self.pending = next(gen) if fresh else gen.send(scores)
            except StopIteration:
                self.state.end_instance()
                gen = None
                scores = None
                continue
            self.gen = gen
            return


class BatchedSimulator:
    """Run N independent episodes in lockstep with batched scoring.

    Parameters
    ----------
    system:
        Resource configuration, shared by every episode.
    schedulers:
        One policy per episode. Policies meant to share a network must
        report the same :meth:`~repro.sched.base.Scheduler.batch_scorer`
        key (e.g. MRSch lockstep clones sharing one agent); scoring is
        grouped by that key, one batched call per group per macro-step.
    record_timeline:
        As for :class:`~repro.sim.simulator.Simulator`.
    """

    def __init__(
        self,
        system: SystemConfig,
        schedulers: list[Scheduler],
        record_timeline: bool = True,
    ) -> None:
        if not schedulers:
            raise ValueError("BatchedSimulator needs at least one scheduler")
        self.system = system
        self.schedulers = list(schedulers)
        self.record_timeline = record_timeline
        self._episodes = [
            _Episode(Simulator(system, sched, record_timeline))
            for sched in self.schedulers
        ]
        #: stacked-input staging buffers, reused across macro-steps
        self._ws = InferenceWorkspace()
        #: diagnostics of the last :meth:`run` — how many batched
        #: scoring calls were issued and how many decision rows they
        #: carried (bench meta reports the amortization achieved)
        self.batch_calls = 0
        self.scored_rows = 0

    @classmethod
    def for_scheduler(
        cls,
        system: SystemConfig,
        scheduler: Scheduler,
        n_episodes: int,
        record_timeline: bool = True,
    ) -> "BatchedSimulator":
        """N lockstep lanes driven by ``scheduler`` and its clones."""
        if n_episodes <= 0:
            raise ValueError("n_episodes must be positive")
        schedulers = lockstep_lanes(scheduler, n_episodes)
        if schedulers is None:
            raise ValueError(f"{scheduler.name} does not support lockstep cloning")
        return cls(system, schedulers, record_timeline)

    def run(self, jobsets: list[list[Job]]) -> list[SimulationResult]:
        """Replay one jobset per episode; results in episode order.

        Every lane *is* one ``Simulator.run`` call — jobset copied,
        scheduler reset, result packaged, ``episode`` telemetry and
        whatever wraps ``Simulator.run`` all as for a solo replay. The
        calls open one around the next, since the lanes run interleaved
        (four Python frames a lane), and the innermost drives them all.
        Episodes finishing early simply drop out of the lockstep batch —
        the rest keep batching among themselves.
        """
        episodes = self._episodes
        if len(jobsets) != len(episodes):
            raise ValueError(
                f"got {len(jobsets)} jobsets for {len(episodes)} episodes"
            )
        self.batch_calls = 0
        self.scored_rows = 0
        results: list = [None] * len(episodes)
        self._enter(0, jobsets, results)
        return results

    # -- internals ------------------------------------------------------

    def _enter(self, lane: int, jobsets: list[list[Job]], results: list) -> None:
        """Open lane ``lane``'s ``Simulator.run`` around the later lanes'."""
        if lane == len(self._episodes):
            self._drive()
            return
        results[lane] = self._episodes[lane].sim.run(
            jobsets[lane], drive=lambda: self._enter(lane + 1, jobsets, results)
        )

    def _drive(self) -> None:
        """Advance every (freshly loaded) lane to the end of its episode."""
        episodes = self._episodes
        for ep in episodes:
            ep.gen = ep.pending = None
            ep.run_until_pause()
        while True:
            ready = [ep for ep in episodes if ep.pending is not None]
            if not ready:
                break
            self._score_macro_step(ready)

    def _score_macro_step(self, ready: list[_Episode]) -> None:
        """Score every paused decision once; resume each episode."""
        groups: dict[int, tuple] = {}
        singles: list[_Episode] = []
        for ep in ready:
            scorer = ep.scheduler.batch_scorer()
            if scorer is None:
                singles.append(ep)
                continue
            key, fn = scorer
            entry = groups.get(id(key))
            if entry is None:
                groups[id(key)] = (fn, [ep])
            else:
                entry[1].append(ep)
        for ep in singles:
            ep.run_until_pause(ep.scheduler.score_decision(ep.pending))
        for fn, eps in groups.values():
            if len(eps) == 1:
                # A batch of one scores through the policy's own B=1
                # path — cheaper (folded objective) and bit-identical
                # to the sequential simulator.
                ep = eps[0]
                ep.run_until_pause(ep.scheduler.score_decision(ep.pending))
                continue
            batch = len(eps)
            first = eps[0].pending
            states = self._ws.buffer("stack_state", (batch, first.state.shape[-1]))
            meas = self._ws.buffer("stack_meas", (batch, first.measurement.shape[-1]))
            goals = self._ws.buffer("stack_goal", (batch, first.goal.shape[-1]))
            for i, ep in enumerate(eps):
                pending = ep.pending
                states[i] = pending.state
                meas[i] = pending.measurement
                goals[i] = pending.goal
            scores = fn(states, meas, goals)
            self.batch_calls += 1
            self.scored_rows += batch
            session = _obs_runtime.session
            if session is not None:
                session.metrics.histogram("sim.inference_batch").observe(batch)
                session.metrics.counter("sim.batch_calls").inc()
            for i, ep in enumerate(eps):
                ep.run_until_pause(scores[i])
