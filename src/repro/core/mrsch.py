"""MRSchScheduler — :class:`~repro.core.prior.PriorScheduler` plus the DFP agent.

Each scheduling instance (§III):

1. the **goal vector** is recomputed from the live contention via Eq. 1
   (dynamic resource prioritizing, the base class) wherever a decision
   of the instance can read it — a training decision always does — and
   at every instance of a recorded replay, which logs it for Figs 8–9;
2. for every selection the scheduler first asks whether the network
   could change the pick (:meth:`MRSchScheduler._settle`): a window
   holding one job is forced, and under the guided policy a feasibility
   prior — computed from the queue's request columns and the pool's
   free counts, no state vector — whose leader is ahead by more than
   twice the cap on the DFP tie-break has already decided. Those
   selections are made at once. Otherwise the window/pool state is
   encoded (§III-A) — by default via the incremental encoder, which
   patches a persistent buffer from pool dirty regions instead of
   rebuilding the full-machine vector — the current measurement
   (per-resource utilization) is read, and the DFP agent scores the
   whole window in one batched pass and picks a slot — ε-greedily
   during training (which always encodes: the state is the experience;
   a settled step skips only the forward pass), greedily by
   goal-weighted predicted outcome at test time;
3. the shared base-class machinery starts fitting selections, reserves
   the first non-fitting one, and EASY-backfills (§III-C).

During training the scheduler records (state, measurement, goal,
action) tuples plus the per-decision measurement timeline; at episode
end the agent converts them into future-measurement-change targets and
runs replay updates.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.core.cnn_state import build_cnn_state_module
from repro.core.dfp import DFPAgent, DFPConfig
from repro.core.encoding import IncrementalStateEncoder, StateEncoder
from repro.core.measurements import measurement_vector
from repro.core.prior import DFP_TIEBREAK_SCALE, PriorScheduler, guided_scores
from repro.nn.serialize import load_params, save_params
from repro.sched.base import SchedulingContext
from repro.workload.job import Job

__all__ = ["MRSchScheduler"]


class MRSchScheduler(PriorScheduler):
    """Multi-resource DFP scheduling agent (the paper's contribution).

    With ``prior_weight > 0`` (the default) it is the base class's prior
    ranking, DFP scores a capped tie-break: zero scores reproduce the
    ``prior`` method, and ``decisions_overruled`` counts scored decisions
    moved off the prior's arg-max. ``prior_weight = 0`` is pure DFP.
    """

    name = "mrsch"

    def __init__(
        self,
        system: SystemConfig,
        window_size: int = 10,
        backfill: bool = True,
        dfp_config: DFPConfig | None = None,
        state_module: str = "mlp",
        agent: DFPAgent | None = None,
        seed: int | np.random.Generator | None = None,
        time_scale: float = 4 * 3600.0,
        prior_weight: float = 2.0,
        dynamic_goal: bool = True,
    ) -> None:
        super().__init__(system, window_size, backfill, dynamic_goal)
        self.encoder = StateEncoder(system, window_size=window_size, time_scale=time_scale)
        #: decision-state path: patch a persistent state buffer via pool
        #: dirty tracking instead of rebuilding ``state_dim`` zeros per
        #: selection. Bit-identical to ``encoder.encode`` (pinned by
        #: tests/unit/test_encoding_incremental.py).
        self._inc_encoder = IncrementalStateEncoder(self.encoder)
        config = dfp_config or DFPConfig(
            state_dim=self.encoder.state_dim,
            n_measurements=system.n_resources,
            n_actions=window_size,
            slot_dim=self.encoder.job_dim,
        )
        if config.action_stream == "shared" and config.slot_dim != self.encoder.job_dim:
            raise ValueError(
                f"dfp_config.slot_dim={config.slot_dim} does not match the "
                f"encoder's per-job width {self.encoder.job_dim}"
            )
        if config.state_dim != self.encoder.state_dim:
            raise ValueError(
                f"dfp_config.state_dim={config.state_dim} does not match the "
                f"encoder's {self.encoder.state_dim}"
            )
        if config.n_actions != window_size:
            raise ValueError("dfp_config.n_actions must equal window_size")
        if agent is not None:
            self.agent = agent
        elif state_module == "cnn":
            module, out_dim = build_cnn_state_module(config.state_dim, rng=seed)
            self.agent = DFPAgent(
                config, rng=seed, state_module=module, state_module_out=out_dim
            )
        elif state_module == "mlp":
            self.agent = DFPAgent(config, rng=seed)
        else:
            raise ValueError(f"unknown state_module {state_module!r}")
        self.state_module = state_module
        #: weight of the feasibility prior — the heuristics+RL combination
        #: the paper cites from MARS, robust at laptop-scale training
        #: budgets. 0.0 is the original paper's pure DFP policy (for
        #: paper-scale training: 40 job sets / 200k jobs).
        self.prior_weight = prior_weight
        self.training = False
        self._steps: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
        self._measurements: list[np.ndarray] = []

    #: the cap plus the stated slack of :meth:`_settle`: one part in 1e9,
    #: seven orders above the two roundings that produce a normalised score
    _SETTLE_BOUND = DFP_TIEBREAK_SCALE * (1.0 + 1e-9)

    def _settle(
        self, window: list[Job], ctx: SchedulingContext
    ) -> tuple[int | None, np.ndarray | None]:
        """``(action, prior)``: the slot no score vector can vote out.

        ``action`` is ``None`` when the network has a say; ``prior`` is
        the guided policy's prior whenever this method had to compute it
        (:meth:`_apply_decision` reuses it rather than computing it twice).

        * One candidate: every arg-max over a one-slot mask is slot 0.
        * ``prior_weight > 0``: write ``x = prior_weight * prior`` (the
          very floats :meth:`_apply_decision` adds the scores to), ``a``
          for its arg-max and ``r`` for the runner-up value. The rule
          settles on ``a`` iff ``x[a] - B > r + B`` *as computed*, with
          ``B = _SETTLE_BOUND``. Proof that the guided arg-max is then
          ``a``: a normalised score is ``s = fl(score * fl(T / peak))``
          with ``|score| <= peak`` and ``T = DFP_TIEBREAK_SCALE``, two
          roundings, so ``|s| <= T(1+u)^2 < B`` (``u = 2^-53``); rounded
          addition is monotone in each operand, hence
          ``fl(x[a] + s[a]) >= fl(x[a] - B) > fl(r + B) >= fl(x[b] + B)
          >= fl(x[b] + s[b])`` for every other slot ``b`` — a strict
          lead, so no tie for ``argmax`` to break by position. Nothing
          is assumed about magnitudes, and ``peak == 0`` (scores left
          unscaled, all zero) is the case ``s = 0``.
        * Pure DFP (``prior_weight == 0``) settles on nothing else: the
          scores *are* the decision.

        The one caveat: the proof needs finite scores whose ``peak``
        does not overflow ``T / peak`` (a subnormal below ~1e-310). A
        diverged network that emits NaN or inf used to steer the pick
        through ``argmax``'s NaN-first rule; on a settled window it no
        longer does — the prior's clear choice stands.
        """
        n = len(window)
        if n == 1:
            return 0, None
        if self.prior_weight <= 0.0:
            return None, None
        prior = self._prior(window, ctx)
        weighted = self.prior_weight * prior[:n]
        top = int(np.argmax(weighted))
        lead = weighted[top]
        weighted[top] = -np.inf
        bound = self._SETTLE_BOUND
        if lead - bound > weighted.max() + bound:
            return top, prior
        return None, prior

    def _reads_goal(self, ctx: SchedulingContext) -> bool:
        """A training decision stores the goal with its experience, a
        one-job window's too; evaluation reads it as the base class says."""
        if self.training:
            return len(ctx.queue) >= 1
        return super()._reads_goal(ctx)

    # -- one decision ---------------------------------------------------------
    #
    # select() = _prepare_decision → _score_decision → _apply_decision,
    # the staged tuple handed from the first to the last. The ε-greedy
    # RNG stream is one ``random()`` draw per training decision, one
    # ``choice`` draw on exploration, ε decay after the action.

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        if not window:
            return None
        staged = self._prepare_decision(window, ctx)
        state, measurement, _, _, action = staged
        scores = None if action is not None else self._score_decision(state, measurement)
        return self._apply_decision(window, ctx, staged, scores)

    def _prepare_decision(self, window: list[Job], ctx: SchedulingContext) -> tuple:
        """``(state, measurement, mask, prior, action)`` of one decision.

        ``action`` is already set when the decision was explored or
        settled (the network is then not asked); the three arrays are
        unset when nothing will read them.
        """
        self.encoder._check_pool(ctx.pool)
        action, prior = self._settle(window, ctx)
        if action is not None and not self.training:
            # Nothing downstream reads a state, a measurement or a mask:
            # the encoder's dirty tracker keeps accumulating until the
            # next decision that is scored.
            return None, None, None, prior, action
        # Patch the persistent decision buffer (bit-identical to a fresh
        # encode). ``encode_decision``, not ``encode``: it is the boundary
        # outside tracers time the encode layer at.
        state = self._inc_encoder.encode_decision(window, ctx.pool, ctx.now)
        if self.training:
            # Training steps retain the state beyond this decision; the
            # shared buffer must not leak.
            state = state.copy()
        measurement = measurement_vector(ctx.pool)
        mask = self.encoder.window_mask(window)
        agent = self.agent
        if self.training and agent._sample_rng.random() < agent.epsilon:
            # Drawn whether or not the window was settled, so the
            # ε-greedy stream stays where it always was.
            action = int(agent._sample_rng.choice(np.flatnonzero(mask)))
        if action is None:
            self.decisions_scored += 1
        return state, measurement, mask, prior, action

    def _score_decision(self, state: np.ndarray, measurement: np.ndarray) -> np.ndarray:
        return self.agent.action_scores(state, measurement, self._goal)

    def _apply_decision(
        self,
        window: list[Job],
        ctx: SchedulingContext,
        staged: tuple,
        scores: np.ndarray | None,
    ) -> Job:
        state, measurement, mask, prior, action = staged
        agent = self.agent
        if action is None:
            assert scores is not None
            if self.prior_weight > 0.0:
                # Prior-guided greedy rule: prior ranks, DFP predictions
                # tie-break (normalised so they reorder near-ties but
                # never cross prior ranks).
                assert prior is not None
                combined = guided_scores(self.prior_weight, prior, scores, mask)
                action = int(np.argmax(combined))
                if action != int(np.argmax(prior[: len(window)])):
                    self.decisions_overruled += 1
            else:
                action = int(np.argmax(np.where(mask, scores, -np.inf)))
        if self.training:
            agent.epsilon = max(
                agent.config.epsilon_min,
                agent.epsilon * agent.config.epsilon_decay,
            )
        job = window[action]
        if self.training:
            terminal = not ctx.pool.can_fit(job)  # this pick becomes a reservation
            self._steps.append(
                (state, measurement, self._goal.copy(), action, terminal)
            )
            self._measurements.append(measurement)
        return job

    # -- episode lifecycle ------------------------------------------------

    def start_episode(self) -> None:
        self._steps = []
        self._measurements = []

    def finish_episode(self) -> float:
        """Learn from the finished episode; returns the mean replay loss."""
        if not self._steps:
            return 0.0
        self.agent.record_episode(self._steps, self._measurements)
        loss = self.agent.train_epoch()
        self._steps = []
        self._measurements = []
        return loss

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Checkpoint the trained agent to ``path`` (.npz)."""
        save_params(path, self.agent.state_dict())

    def load(self, path: str) -> None:
        """Restore a checkpoint written by :meth:`save`."""
        self.agent.load_state_dict(load_params(path))
