"""MRSchScheduler — the DFP agent wired into the scheduling machinery.

Each scheduling instance (§III):

1. the **goal vector** is recomputed from the live contention via Eq. 1
   (dynamic resource prioritizing) and logged for Figs 8–9;
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
   goal-weighted predicted outcome at test time. With a decision
   recorder attached nothing is settled: a trace carries every
   decision's scores;
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
from repro.core.goal import goal_vector
from repro.core.measurements import measurement_vector
from repro.nn.serialize import load_params, save_params
from repro.sched.base import DecisionInputs, Scheduler, SchedulingContext
from repro.workload.job import Job

__all__ = ["MRSchScheduler"]


class MRSchScheduler(Scheduler):
    """Multi-resource DFP scheduling agent (the paper's contribution)."""

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
        super().__init__(window_size=window_size, backfill=backfill)
        self.system = system
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
        #: weight of the inference-time feasibility prior. The prior
        #: encodes the §III-C intent directly — prefer currently-fitting
        #: jobs (cheapest goal-weighted demand first) and, when nothing
        #: fits, the longest-waiting job — and the DFP predictions
        #: reorder choices within those classes. This is the
        #: heuristics+RL combination the paper cites from MARS; it makes
        #: the agent robust at laptop-scale training budgets. Set to 0.0
        #: for the pure-DFP policy of the original paper (appropriate
        #: with paper-scale training: 40 job sets / 200k jobs).
        self.prior_weight = prior_weight
        #: §III-B dynamic resource prioritizing. False freezes the goal
        #: at uniform weights — the fixed-priority behaviour the paper's
        #: Fig. 1 argues against; kept for the ablation benchmark.
        self.dynamic_goal = dynamic_goal
        self.training = False
        self._caps = system.capacities
        #: (time, goal vector) samples of the current run — Figs 8–9
        self.goal_log: list[tuple[float, np.ndarray]] = []
        self._goal = np.full(system.n_resources, 1.0 / system.n_resources)
        self._steps: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
        self._measurements: list[np.ndarray] = []
        #: inputs/outputs of the last select(), for the trace recorder
        self._last_features: dict | None = None
        self._last_scores: np.ndarray | None = None
        #: per-decision context staged by prepare_decision for
        #: apply_decision: (state, measurement, mask, prior, action) —
        #: ``action`` already set when the decision was explored or
        #: settled, the three arrays unset when nothing will read them
        self._pending: tuple | None = None

    # -- scheduler hooks ---------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.goal_log = []
        self._goal = np.full(self.system.n_resources, 1.0 / self.system.n_resources)

    def begin_instance(self, ctx: SchedulingContext) -> None:
        """Dynamic resource prioritizing (§III-B): refresh the goal."""
        if self.dynamic_goal:
            self._goal = goal_vector(ctx.queue, ctx.running, self.system, ctx.now)
        self.goal_log.append((ctx.now, self._goal.copy()))

    def _prior(self, window: list[Job], ctx: SchedulingContext) -> np.ndarray:
        """Feasibility/age prior over window slots.

        Fitting jobs score in [0.5, 1.5] (lower goal-weighted demand →
        higher), non-fitting jobs in [-1.5, -1.0] (longer queued →
        higher, so the reservation protects the oldest starving job).
        The class gap is wide enough that DFP scores reorder within a
        class but cannot promote a non-fitting grab over a fitting one.

        Needs no state encode: the window's request rows are read off
        the queue's columns and feasibility is one compare against the
        pool's live free-count vector — the same booleans ``can_fit``
        returns for validated jobs, which is what the per-job oracle in
        ``tests/unit/_sched_reference.py`` asks job by job.
        """
        n = len(window)
        reqs = ctx.queue.window_requests(window)
        fits = (reqs <= ctx.pool.free_vector()).all(axis=1)
        demand = (reqs / self._caps) @ self._goal
        prior = np.zeros(self.window_size)
        # Queue order = age order: the oldest non-fitting job outranks
        # younger ones by a full tie-break margin, so the reservation
        # always protects the longest waiter.
        prior[:n] = np.where(fits, 1.5 - demand, -1.5 - 0.1 * np.arange(n))
        return prior

    #: cap on the normalised DFP contribution under the guided policy —
    #: enough to reorder near-ties, never enough to cross prior ranks
    _DFP_TIEBREAK_SCALE = 0.02
    #: the cap plus the stated slack of :meth:`_settle`: one part in 1e9,
    #: seven orders above the two roundings that produce a normalised score
    _SETTLE_BOUND = _DFP_TIEBREAK_SCALE * (1.0 + 1e-9)

    def _settle(
        self, window: list[Job], ctx: SchedulingContext
    ) -> tuple[int | None, np.ndarray | None]:
        """``(action, prior)``: the slot no score vector can vote out.

        ``action`` is ``None`` when the network has a say; ``prior`` is
        the guided policy's prior whenever this method had to compute it
        (:meth:`apply_decision` reuses it rather than computing it twice).

        * One candidate: every arg-max over a one-slot mask is slot 0.
        * ``prior_weight > 0``: write ``x = prior_weight * prior`` (the
          very floats :meth:`apply_decision` adds the scores to), ``a``
          for its arg-max and ``r`` for the runner-up value. The rule
          settles on ``a`` iff ``x[a] - B > r + B`` *as computed*, with
          ``B = _SETTLE_BOUND``. Proof that the guided arg-max is then
          ``a``: a normalised score is ``s = fl(score * fl(T / peak))``
          with ``|score| <= peak`` and ``T = _DFP_TIEBREAK_SCALE``, two
          roundings, so ``|s| <= T(1+u)^2 < B`` (``u = 2^-53``); rounded
          addition is monotone in each operand, hence
          ``fl(x[a] + s[a]) >= fl(x[a] - B) > fl(r + B) >= fl(x[b] + B)
          >= fl(x[b] + s[b])`` for every other slot ``b`` — a strict
          lead, so no tie for ``argmax`` to break by position. Nothing
          is assumed about magnitudes, and ``peak == 0`` (scores left
          unscaled, all zero) is the case ``s = 0``.
        * Pure DFP (``prior_weight == 0``) settles on nothing else: the
          scores *are* the decision.
        * A scheduler with a ``decision_recorder`` settles nothing — a
          trace carries the scores of every decision, so the recorded
          run is the always-score oracle the tests hold this rule to.

        The one caveat: the proof needs finite scores whose ``peak``
        does not overflow ``T / peak`` (a subnormal below ~1e-310). A
        diverged network that emits NaN or inf used to steer the pick
        through ``argmax``'s NaN-first rule; on a settled window it no
        longer does — the prior's clear choice stands.
        """
        recording = self.decision_recorder is not None
        n = len(window)
        if n == 1 and not recording:
            return 0, None
        if self.prior_weight <= 0.0:
            return None, None
        prior = self._prior(window, ctx)
        if recording:
            return None, prior
        weighted = self.prior_weight * prior[:n]
        top = int(np.argmax(weighted))
        lead = weighted[top]
        weighted[top] = -np.inf
        bound = self._SETTLE_BOUND
        if lead - bound > weighted.max() + bound:
            return top, prior
        return None, prior

    # -- split decision protocol -------------------------------------------
    #
    # select() = prepare_decision → score_decision → apply_decision. The
    # split exists so the batched lockstep driver can stack many
    # episodes' prepared inputs into ONE ``action_scores_batch`` call
    # and feed each episode its score row; run sequentially, the three
    # stages reproduce the monolithic select exactly — including the
    # ε-greedy RNG stream (one ``random()`` draw per training decision,
    # one ``choice`` draw on exploration, ε decay after the action).

    def prepare_decision(
        self, window: list[Job], ctx: SchedulingContext
    ) -> DecisionInputs:
        self.encoder._check_pool(ctx.pool)
        self._last_scores = None
        action, prior = self._settle(window, ctx)
        if action is not None and not self.training:
            # Nothing downstream reads a state, a measurement or a mask:
            # the encoder's dirty tracker keeps accumulating until the
            # next decision that is scored.
            self._pending = (None, None, None, prior, action)
            return DecisionInputs(needs_scores=False)
        # Patch the persistent decision buffer (bit-identical to a fresh
        # encode). ``encode_decision``, not ``encode``: it is the boundary
        # outside tracers time the encode layer at.
        state = self._inc_encoder.encode_decision(window, ctx.pool, ctx.now)
        if self.training or self.decision_recorder is not None:
            # Training steps and traces retain the state beyond this
            # decision; the shared buffer must not leak.
            state = state.copy()
        measurement = measurement_vector(ctx.pool)
        mask = self.encoder.window_mask(window)
        agent = self.agent
        if self.training and agent._sample_rng.random() < agent.epsilon:
            # Drawn whether or not the window was settled, so the
            # ε-greedy stream stays where it always was.
            action = int(agent._sample_rng.choice(np.flatnonzero(mask)))
        self._pending = (state, measurement, mask, prior, action)
        if action is None:
            self.decisions_scored += 1
        return DecisionInputs(
            state=state,
            measurement=measurement,
            goal=self._goal,
            needs_scores=action is None,
        )

    def score_decision(self, inputs: DecisionInputs) -> np.ndarray:
        """Single-decision scoring (the B=1 path of the batch scorer)."""
        return self.agent.action_scores(inputs.state, inputs.measurement, inputs.goal)

    def apply_decision(
        self, window: list[Job], ctx: SchedulingContext, scores: np.ndarray | None
    ) -> Job | None:
        assert self._pending is not None, "apply_decision without prepare_decision"
        state, measurement, mask, prior, action = self._pending
        self._pending = None
        agent = self.agent
        if action is None:
            assert scores is not None
            if self.prior_weight > 0.0:
                # Prior-guided greedy rule: prior ranks, DFP predictions
                # tie-break (normalised so they reorder near-ties but
                # never cross prior ranks).
                assert prior is not None
                peak = float(np.abs(scores[mask]).max()) if mask.any() else 0.0
                if peak > 0:
                    scores = scores * (self._DFP_TIEBREAK_SCALE / peak)
                combined = self.prior_weight * prior + scores
                combined = np.where(mask, combined, -np.inf)
                action = int(np.argmax(combined))
                self._last_scores = combined
            else:
                action = int(np.argmax(np.where(mask, scores, -np.inf)))
        if self.training:
            agent.epsilon = max(
                agent.config.epsilon_min,
                agent.epsilon * agent.config.epsilon_decay,
            )
        if self.decision_recorder is not None:
            # Assembled only while tracing so the untraced hot path stays
            # allocation-free. ``prior`` is set on exploration steps too:
            # a trace must carry the prior that governs this policy's
            # greedy rule — offline replay would otherwise score the
            # decision with a zero prior.
            self._last_features = {
                "state": state,
                "measurement": measurement,
                "goal": self._goal.copy(),
                "prior": prior,
                "scores": self._last_scores,
                "slot_dim": self.encoder.job_dim,
            }
        job = window[action]
        if self.training:
            terminal = not ctx.pool.can_fit(job)  # this pick becomes a reservation
            self._steps.append(
                (state, measurement, self._goal.copy(), action, terminal)
            )
            self._measurements.append(measurement)
        return job

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        if not window:
            return None
        inputs = self.prepare_decision(window, ctx)
        scores = self.score_decision(inputs) if inputs.needs_scores else None
        return self.apply_decision(window, ctx, scores)

    def batch_scorer(self):
        """Stacked scoring via the shared agent's batched forward pass."""
        return (self.agent, self.agent.action_scores_batch)

    def lockstep_clone(self) -> "MRSchScheduler":
        """A scheduler for one more lockstep episode, sharing the agent.

        The clone owns its own encoder buffers, goal state and episode
        bookkeeping but scores through the *same* agent (weights,
        workspaces, ε state) — which is exactly what the batched driver
        needs: per-episode mutable state apart, one network.
        """
        clone = MRSchScheduler(
            self.system,
            window_size=self.window_size,
            backfill=self.backfill_enabled,
            dfp_config=self.agent.config,
            state_module=self.state_module,
            agent=self.agent,
            time_scale=self.encoder.time_scale,
            prior_weight=self.prior_weight,
            dynamic_goal=self.dynamic_goal,
        )
        clone.training = self.training
        return clone

    def decision_features(self, window: list[Job], ctx: SchedulingContext) -> dict | None:
        """The exact inputs/outputs the last :meth:`select` decided on.

        ``scores`` are the final combined decision scores (``None`` on
        ε-greedy exploration steps or the pure-DFP path, where the agent
        keeps them internal); ``prior`` is the raw feasibility/age prior
        before weighting.
        """
        return self._last_features

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

    # -- introspection ---------------------------------------------------------

    def goal_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, goal vectors) logged during the last run."""
        if not self.goal_log:
            return np.zeros(0), np.zeros((0, self.system.n_resources))
        times = np.array([t for t, _ in self.goal_log])
        goals = np.vstack([g for _, g in self.goal_log])
        return times, goals
