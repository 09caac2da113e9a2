"""Direct Future Prediction (DFP) network and agent.

DFP (Dosovitskiy & Koltun, ICLR 2017) is the multi-objective RL
algorithm MRSch builds on. Instead of a scalar value function it learns
to *predict the future measurement changes* each action would cause,
conditioned on the current state, measurement and goal; acting is then
goal-weighted argmax over predictions, which lets the objective change
at runtime simply by changing the goal vector — no retraining.

Architecture (paper §II-B / Fig. 2):

* three input modules — state ``s`` (MLP here, §III-A; CNN variant in
  :mod:`repro.core.cnn_state`), measurement ``m`` and goal ``g`` — whose
  outputs are concatenated into a joint representation ``j``;
* two parallel streams on ``j``, following the dueling architecture:
  an **expectation stream** predicting the action-averaged future
  measurement change, and an **action stream** predicting per-action
  deviations, normalised to zero mean across actions;
* the prediction for action ``a`` is ``expectation + normalised(a)``,
  one value per (measurement, temporal offset) pair.

Training regresses predictions of the *taken* action onto realised
future measurement changes at several temporal offsets (MSE), from an
experience-replay buffer, with an ε-greedy behaviour policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Dense, LeakyReLU, SlotDense, reuse
from repro.nn.losses import mse_loss
from repro.nn.network import Sequential, reject_unknown_keys
from repro.nn.optim import Adam
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["DFPConfig", "DFPNetwork", "DFPAgent", "Experience", "StratifiedReplay"]


@dataclass(frozen=True)
class DFPConfig:
    """Hyper-parameters of the DFP network and agent.

    Defaults are sized for the miniature experiment system; the paper's
    full-scale Theta network (§IV-C: 4000/1000 hidden units, 512-d state
    output, 128-unit measurement/goal modules) is available via
    :meth:`paper_scale`.
    """

    state_dim: int
    n_measurements: int
    n_actions: int
    #: temporal offsets, in scheduling decisions, at which future
    #: measurement changes are predicted. Starting at 2 (not 1) dilutes
    #: the instantaneous "grab the biggest job" signal that short
    #: horizons over-reward; see EXPERIMENTS.md calibration notes.
    offsets: tuple[int, ...] = (2, 4, 8, 16)
    #: relative weight of each offset in the action-selection objective;
    #: later offsets matter more (long-term effect), as in the DFP paper
    temporal_weights: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    state_hidden: tuple[int, int] = (256, 128)
    state_out: int = 128
    module_hidden: int = 64
    module_out: int = 64
    stream_hidden: int = 128
    #: action-stream weight sharing: "shared" scores every window slot
    #: with one head over (joint representation, that slot's job
    #: features) — far more sample-efficient at laptop training budgets;
    #: "dense" is the paper's monolithic stream (one output block per
    #: action), appropriate at paper-scale training volumes.
    action_stream: str = "shared"
    #: per-slot feature width inside the state vector (R+2 for the
    #: §III-A encoding); used only by the shared action stream, which
    #: slices slot features from the state input.
    slot_dim: int | None = None
    lr: float = 5e-4
    batch_size: int = 64
    replay_capacity: int = 20_000
    train_batches_per_episode: int = 128
    epsilon_start: float = 1.0
    epsilon_min: float = 0.03
    #: per-decision ε decay rate (paper: α = 0.995 per episode at
    #: paper-scale training; per-decision 0.999 at laptop scale)
    epsilon_decay: float = 0.999
    grad_clip: float = 10.0

    def __post_init__(self) -> None:
        if self.state_dim <= 0 or self.n_measurements <= 0 or self.n_actions <= 0:
            raise ValueError("dimensions must be positive")
        if len(self.offsets) != len(self.temporal_weights):
            raise ValueError("offsets and temporal_weights must have equal length")
        if any(o <= 0 for o in self.offsets):
            raise ValueError("offsets must be positive")
        if list(self.offsets) != sorted(self.offsets):
            raise ValueError("offsets must be increasing")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("invalid epsilon range")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.batch_size < 1 or self.train_batches_per_episode < 0:
            raise ValueError("batch_size must be >= 1 and train_batches_per_episode >= 0")
        if not (0 < self.lr < math.inf and 0 < self.grad_clip < math.inf):
            raise ValueError("lr and grad_clip must be positive and finite")
        if self.action_stream not in ("shared", "dense"):
            raise ValueError("action_stream must be 'shared' or 'dense'")
        if self.action_stream == "shared":
            slot = self.slot_dim if self.slot_dim is not None else 0
            if slot <= 0:
                # Default to the §III-A layout: R+2 features per slot.
                object.__setattr__(self, "slot_dim", self.n_measurements + 2)
            if self.slot_dim * self.n_actions > self.state_dim:
                raise ValueError(
                    "state vector too short for n_actions slots of slot_dim features"
                )

    @property
    def n_offsets(self) -> int:
        return len(self.offsets)

    @property
    def pred_dim(self) -> int:
        """Prediction size per action: one value per (measurement, offset)."""
        return self.n_measurements * self.n_offsets

    @classmethod
    def paper_scale(cls, state_dim: int, n_measurements: int, n_actions: int) -> "DFPConfig":
        """The §IV-C full-scale architecture."""
        return cls(
            state_dim=state_dim,
            n_measurements=n_measurements,
            n_actions=n_actions,
            state_hidden=(4000, 1000),
            state_out=512,
            module_hidden=128,
            module_out=128,
            stream_hidden=512,
            action_stream="dense",
        )


@dataclass
class Experience:
    """One decision: inputs, the action taken, and its realised future.

    ``terminal`` marks a selection whose job did not fit (it became the
    instance's reservation). These are structurally rare — at most one
    per scheduling instance — so replay sampling stratifies on the flag
    to keep the "don't grab what doesn't fit" signal from being drowned
    out by the abundant fitting-selection experiences.
    """

    state: np.ndarray
    measurement: np.ndarray
    goal: np.ndarray
    action: int
    target: np.ndarray  # (pred_dim,) realised future measurement changes
    terminal: bool = False


class StratifiedReplay:
    """Bounded experience store with O(1)-indexable terminal strata.

    The stratified minibatch draw needs the terminal and non-terminal
    experiences as separately indexable sequences. Filtering the whole
    buffer per minibatch — the previous implementation — is an
    O(capacity) scan repeated ``train_batches_per_episode`` times per
    episode (millions of touches at the default 20k capacity). This
    store maintains the two strata incrementally instead: appends go to
    the chronological list *and* their stratum, evictions at capacity
    advance head cursors (the oldest element overall is by construction
    the oldest of its stratum), and dead prefixes are compacted away
    amortized O(1).

    Iteration order, indexing and eviction order are exactly those of a
    ``deque(maxlen=capacity)``, and the strata match what filtering that
    deque would produce — the replay draw is bit-identical.
    """

    def __init__(self, maxlen: int) -> None:
        if maxlen <= 0:
            raise ValueError("replay capacity must be positive")
        self.maxlen = maxlen
        self._all: list[Experience] = []
        self._term: list[Experience] = []
        self._reg: list[Experience] = []
        self._all_head = 0
        self._term_head = 0
        self._reg_head = 0

    def __len__(self) -> int:
        return len(self._all) - self._all_head

    def __iter__(self):
        return iter(self._all[self._all_head :])

    def __getitem__(self, index: int) -> Experience:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("replay index out of range")
        return self._all[self._all_head + index]

    @property
    def n_terminal(self) -> int:
        return len(self._term) - self._term_head

    @property
    def n_regular(self) -> int:
        return len(self._reg) - self._reg_head

    def terminal_at(self, index: int) -> Experience:
        return self._term[self._term_head + index]

    def regular_at(self, index: int) -> Experience:
        return self._reg[self._reg_head + index]

    def append(self, experience: Experience) -> None:
        self._all.append(experience)
        (self._term if experience.terminal else self._reg).append(experience)
        if len(self) > self.maxlen:
            oldest = self._all[self._all_head]
            self._all_head += 1
            if oldest.terminal:
                self._term_head += 1
            else:
                self._reg_head += 1
        self._compact()

    def _compact(self) -> None:
        for attr, head_attr in (
            ("_all", "_all_head"),
            ("_term", "_term_head"),
            ("_reg", "_reg_head"),
        ):
            head = getattr(self, head_attr)
            if head > 1024 and head * 2 > len(getattr(self, attr)):
                setattr(self, attr, getattr(self, attr)[head:])
                setattr(self, head_attr, 0)


def _mlp(
    dims: list[int],
    rngs: list[np.random.Generator],
    final_activation: bool,
    input_grad: bool = True,
) -> Sequential:
    """An MLP; ``input_grad=False`` for an input module, whose first
    layer sees raw inputs that nothing backpropagates into."""
    layers: list = []
    for i in range(len(dims) - 1):
        layers.append(Dense(dims[i], dims[i + 1], rng=rngs[i], input_grad=input_grad or i > 0))
        if i < len(dims) - 2 or final_activation:
            layers.append(LeakyReLU())
    return Sequential(layers)


class DFPNetwork:
    """Three input modules → joint representation → dueling streams."""

    def __init__(
        self,
        config: DFPConfig,
        rng: np.random.Generator | int | None = None,
        state_module: Sequential | None = None,
        state_module_out: int | None = None,
    ) -> None:
        self.config = config
        rng = as_generator(rng)
        rngs = spawn_generators(rng, 16)
        c = config
        if state_module is not None:
            if state_module_out is None:
                raise ValueError("state_module_out required with a custom state module")
            self.state_net = state_module
            state_out = state_module_out
        else:
            # §III-A: input layer, two leaky-rectified FC layers, output.
            self.state_net = _mlp(
                [c.state_dim, c.state_hidden[0], c.state_hidden[1], c.state_out],
                rngs[0:3],
                final_activation=True,
                input_grad=False,
            )
            state_out = c.state_out
        self._state_out = state_out
        # §IV-C: three-layer fully-connected measurement and goal modules.
        self.meas_net = _mlp(
            [c.n_measurements, c.module_hidden, c.module_out], rngs[3:5], True, input_grad=False
        )
        self.goal_net = _mlp(
            [c.n_measurements, c.module_hidden, c.module_out], rngs[5:7], True, input_grad=False
        )
        joint = state_out + 2 * c.module_out
        self._joint_dim = joint
        self.expectation_stream = _mlp(
            [joint, c.stream_hidden, c.pred_dim], rngs[7:9], False
        )
        if c.action_stream == "shared":
            # One head applied to every slot: (joint ⊕ slot features) → P.
            self.action_stream = Sequential([
                SlotDense(joint, c.slot_dim, c.stream_hidden, rng=rngs[9]),
                LeakyReLU(),
                Dense(c.stream_hidden, c.pred_dim, rng=rngs[10]),
            ])
        else:
            self.action_stream = _mlp(
                [joint, c.stream_hidden, c.n_actions * c.pred_dim], rngs[9:11], False
            )
        self._joint_splits: tuple[int, int] = (state_out, state_out + c.module_out)
        # The joint, slot and joint-gradient packing (:func:`reuse`); the
        # layers own their activation buffers.
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def layers(self) -> list:
        return (
            self.state_net.layers
            + self.meas_net.layers
            + self.goal_net.layers
            + self.expectation_stream.layers
            + self.action_stream.layers
        )

    def parameter_count(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params.values())

    # -- forward / backward ------------------------------------------------

    def forward(
        self, state: np.ndarray, measurement: np.ndarray, goal: np.ndarray
    ) -> np.ndarray:
        """Predict future measurement changes: (B, n_actions, pred_dim).

        The result is a fresh array; the intermediate activations live
        in buffers the layers own, valid until the next forward, so a
        training forward runs its :meth:`backward` straight after.
        Inputs of any real dtype are taken as float64.
        """
        c = self.config
        state, joint = self._joint(state, measurement, goal)
        expectation = self.expectation_stream.forward(joint)
        actions = self.action_stream.forward(self._action_input(state, joint)).reshape(
            joint.shape[0], c.n_actions, c.pred_dim
        )
        # Dueling normalisation: per-(measurement, offset) zero mean
        # across actions, so the expectation stream carries the average.
        normalised = actions - actions.mean(axis=1, keepdims=True)
        return expectation[:, None, :] + normalised

    #: The name ``DFPAgent.action_scores_batch`` calls (and
    #: ``benchmarks/e2e/trace.py`` times): the one forward.
    forward_infer = forward

    def _joint(self, state, measurement, goal) -> tuple[np.ndarray, np.ndarray]:
        """The float64 state and the joint representation: the three
        input modules' outputs packed into the reused buffer (what
        ``np.concatenate`` built)."""
        state = np.ascontiguousarray(state, dtype=np.float64)
        s = self.state_net.forward(state)
        m = self.meas_net.forward(np.ascontiguousarray(measurement, dtype=np.float64))
        g = self.goal_net.forward(np.ascontiguousarray(goal, dtype=np.float64))
        joint = reuse(self._buffers, "joint", (s.shape[0], self._joint_dim))
        i, j = self._joint_splits
        joint[:, :i] = s
        joint[:, i:j] = m
        joint[:, j:] = g
        return state, joint

    def _action_input(self, state: np.ndarray, joint: np.ndarray):
        """What the action stream consumes: the joint representation —
        for the shared head paired with the window's slot features as
        (B·A, slot) rows of a reused buffer (see :class:`SlotDense`)."""
        c = self.config
        if c.action_stream != "shared":
            return joint
        slots = reuse(self._buffers, "slots", (joint.shape[0] * c.n_actions, c.slot_dim))
        slots.reshape(joint.shape[0], -1)[...] = state[:, : c.n_actions * c.slot_dim]
        return joint, slots

    def forward_scores(
        self,
        state: np.ndarray,
        measurement: np.ndarray,
        goal: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Goal-weighted action scores, (B, n_actions) — the scheduler's
        scoring path.

        The final layer of each stream is linear and the dueling
        normalisation commutes with a dot product, so the objective
        weights fold into the last Dense layer:
        ``(h @ W + b) @ w == h @ (W @ w) + b @ w``. That collapses the
        widest matmul of the forward pass (hidden → pred_dim per action)
        to a single vector product and never materialises the full
        (B, n_actions, pred_dim) prediction tensor. Numerically equal to
        ``forward(...) @ weights`` up to float re-association.

        The other layers run their one ``forward`` into the buffers they
        own, so the once-per-selection call allocates no activation in
        steady state. The returned array is fresh and safe to keep.
        """
        c = self.config
        state, joint = self._joint(state, measurement, goal)
        weights = np.asarray(weights, dtype=np.float64)
        batch = joint.shape[0]

        exp_h = joint
        for layer in self.expectation_stream.layers[:-1]:
            exp_h = layer.forward(exp_h)
        exp_last = self.expectation_stream.layers[-1]
        expectation = exp_h @ (exp_last.params["W"] @ weights) + (
            exp_last.params["b"] @ weights
        )  # (B,)

        act_last = self.action_stream.layers[-1]
        act_h = self._action_input(state, joint)
        for layer in self.action_stream.layers[:-1]:
            act_h = layer.forward(act_h)
        if c.action_stream == "shared":
            actions = (
                act_h @ (act_last.params["W"] @ weights)
                + act_last.params["b"] @ weights
            ).reshape(batch, c.n_actions)
        else:
            w_fold = act_last.params["W"].reshape(
                -1, c.n_actions, c.pred_dim
            ) @ weights  # (in_features, n_actions)
            b_fold = act_last.params["b"].reshape(c.n_actions, c.pred_dim) @ weights
            actions = act_h @ w_fold + b_fold
        actions = actions - actions.mean(axis=1, keepdims=True)
        return expectation[:, None] + actions

    def backward(self, grad_pred: np.ndarray) -> None:
        """Backpropagate d(loss)/d(prediction) through both streams."""
        c = self.config
        batch = grad_pred.shape[0]
        grad_exp = grad_pred.sum(axis=1)
        # y_a = A_a - mean_a(A)  =>  dA_a = dy_a - mean_a(dy).
        grad_act = grad_pred - grad_pred.mean(axis=1, keepdims=True)
        grad_joint = reuse(self._buffers, "grad_joint", (batch, self._joint_dim))
        grad_exp_joint = self.expectation_stream.backward(grad_exp)
        # The shared head sees one row per (sample, slot) and sums the
        # joint gradient back over slots itself (:class:`SlotDense`).
        rows = batch * c.n_actions if c.action_stream == "shared" else batch
        grad_act_joint = self.action_stream.backward(grad_act.reshape(rows, -1))
        np.add(grad_exp_joint, grad_act_joint, out=grad_joint)
        i, j = self._joint_splits
        self.state_net.backward(grad_joint[:, :i])
        self.meas_net.backward(grad_joint[:, i:j])
        self.goal_net.backward(grad_joint[:, j:])

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for branch, net in self._branches():
            for key, value in net.state_dict().items():
                out[f"{branch}.{key}"] = value
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load every branch in place; a key no branch parameter takes
        raises ``KeyError`` before anything is written."""
        reject_unknown_keys(
            state,
            {f"{branch}.{key}" for branch, net in self._branches() for key in net.state_keys()},
        )
        for branch, net in self._branches():
            prefix = f"{branch}."
            sub = {k[len(prefix) :]: v for k, v in state.items() if k.startswith(prefix)}
            net.load_state_dict(sub)

    def _branches(self) -> list[tuple[str, Sequential]]:
        return [
            ("state", self.state_net),
            ("meas", self.meas_net),
            ("goal", self.goal_net),
            ("expectation", self.expectation_stream),
            ("action", self.action_stream),
        ]


class DFPAgent:
    """ε-greedy, replay-trained DFP agent.

    The agent is environment-agnostic: :class:`~repro.core.mrsch.MRSchScheduler`
    feeds it encoded states/measurements/goals and reports episode
    measurement histories; the agent owns prediction, action selection,
    target construction and learning.
    """

    def __init__(
        self,
        config: DFPConfig,
        rng: np.random.Generator | int | None = None,
        state_module: Sequential | None = None,
        state_module_out: int | None = None,
    ) -> None:
        self.config = config
        self.rng = as_generator(rng)
        net_rng, self._sample_rng = spawn_generators(self.rng, 2)
        self.network = DFPNetwork(
            config, rng=net_rng, state_module=state_module, state_module_out=state_module_out
        )
        self.optimizer = Adam(self.network.layers, lr=config.lr)
        self.replay = StratifiedReplay(config.replay_capacity)
        self.epsilon = config.epsilon_start
        self._minibatch: dict[str, np.ndarray] = {}  # train_batch gathers into it
        # Goal vectors are constant within a scheduling instance but the
        # agent scores once per selection — memoise the last flattening.
        self._weights_key: bytes | None = None
        self._weights: np.ndarray | None = None

    # -- acting ------------------------------------------------------------

    def objective_weights(self, goal: np.ndarray) -> np.ndarray:
        """Flatten goal × temporal weights to a (pred_dim,) vector.

        The pursued objective is ``Σ_τ w_τ · g · Δm̂_τ`` — the dot
        product of predicted measurement changes with the goal, weighted
        over temporal offsets. The vector is memoised per goal (a goal
        is constant within a scheduling instance) and read-only, so no
        caller can poison the memo and none needs a copy.
        """
        key = goal.tobytes()
        if key != self._weights_key:
            c = self.config
            w = np.asarray(c.temporal_weights)
            weights = (w[:, None] * goal[None, :]).reshape(c.pred_dim)
            weights.setflags(write=False)
            self._weights, self._weights_key = weights, key
        return self._weights

    def action_scores(
        self, state: np.ndarray, measurement: np.ndarray, goal: np.ndarray
    ) -> np.ndarray:
        """Goal-weighted predicted outcomes, one score per action.

        This is the scheduler's one-batch window scorer: the state
        vector already carries every candidate's job block, and
        ``forward_scores`` evaluates all ``n_actions`` slots in a
        single fused pass (per-candidate blocks ride as rows of the
        shared action head; the dense stream emits every action from
        one matmul) with the objective folded into the final layer —
        there is no per-candidate encode or per-candidate forward.
        """
        scores = self.network.forward_scores(
            state[None, :],
            measurement[None, :],
            goal[None, :],
            self.objective_weights(goal),
        )
        return scores[0]

    def action_scores_batch(
        self, states: np.ndarray, measurements: np.ndarray, goals: np.ndarray
    ) -> np.ndarray:
        """Score a whole batch of decision points in one forward pass.

        Accepts (B, ·) arrays and returns (B, n_actions). Rows may carry
        *different* goals, so the objective weights cannot be folded into
        the network; the full prediction tensor is contracted per row
        instead. One batched pass amortises the network's Python/NumPy
        dispatch overhead over B decision points. Nothing in the package
        calls it; ``benchmarks/e2e/trace.py`` wraps it by name.
        """
        c = self.config
        preds = self.network.forward_infer(states, measurements, goals)  # (B, A, P)
        w = np.asarray(c.temporal_weights, dtype=preds.dtype)
        weights = (w[None, :, None] * goals[:, None, :]).reshape(-1, c.pred_dim)
        return np.einsum("bap,bp->ba", preds, weights)

    def act(
        self,
        state: np.ndarray,
        measurement: np.ndarray,
        goal: np.ndarray,
        valid_mask: np.ndarray,
        explore: bool = False,
        score_bonus: np.ndarray | None = None,
    ) -> int:
        """Choose an action; ε-greedy when ``explore`` is set.

        ``score_bonus`` is added to the goal-weighted predicted scores
        before the argmax — the hook for the scheduler-level policy
        prior (see :class:`~repro.core.mrsch.MRSchScheduler`).
        """
        valid = np.flatnonzero(valid_mask)
        if valid.size == 0:
            raise ValueError("no valid actions")
        if explore and self._sample_rng.random() < self.epsilon:
            action = int(self._sample_rng.choice(valid))
        else:
            scores = self.action_scores(state, measurement, goal)
            if score_bonus is not None:
                scores = scores + score_bonus
            scores = np.where(valid_mask, scores, -np.inf)
            action = int(np.argmax(scores))
        if explore:
            self.epsilon = max(
                self.config.epsilon_min, self.epsilon * self.config.epsilon_decay
            )
        return action

    # -- learning ----------------------------------------------------------

    def build_targets(self, measurements: list[np.ndarray]) -> np.ndarray:
        """Realised future measurement changes for every episode step.

        ``targets[t, k·M:(k+1)·M] = m_{t+τ_k} − m_t``; steps whose offset
        reaches past the episode end use the final measurement (the
        standard DFP treatment of terminal frames).
        """
        c = self.config
        if not measurements:
            return np.zeros((0, c.pred_dim))
        stack = np.vstack(measurements)
        steps = stack.shape[0]
        targets = np.empty((steps, c.pred_dim))
        for k, offset in enumerate(c.offsets):
            future_idx = np.minimum(np.arange(steps) + offset, steps - 1)
            targets[:, k * c.n_measurements : (k + 1) * c.n_measurements] = (
                stack[future_idx] - stack
            )
        return targets

    def record_episode(
        self,
        steps: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]],
        measurements: list[np.ndarray],
    ) -> None:
        """Convert an episode's decisions into replayable experiences.

        Each step is ``(state, measurement, goal, action, terminal)``
        with ``terminal`` true when the selected job did not fit.
        """
        if len(steps) != len(measurements):
            raise ValueError("one measurement per decision step is required")
        targets = self.build_targets(measurements)
        for (state, meas, goal, action, terminal), target in zip(steps, targets):
            self.replay.append(
                Experience(state, meas, goal, action, target, terminal)
            )

    def _sample_batch(self, n: int) -> list[Experience]:
        """Stratified replay draw: half terminal, half non-terminal.

        Falls back to uniform sampling when one class is absent. The
        strata are maintained incrementally by :class:`StratifiedReplay`
        — same draws as filtering the buffer per batch, without the
        O(capacity) scans.
        """
        replay = self.replay
        n_term, n_reg = replay.n_terminal, replay.n_regular
        rng = self._sample_rng
        if not n_term or not n_reg:
            idx = rng.choice(len(replay), size=n, replace=len(replay) < n)
            return [replay[int(i)] for i in idx]
        half = n // 2
        picks = [
            replay.terminal_at(int(i))
            for i in rng.choice(n_term, size=half, replace=n_term < half)
        ]
        picks += [
            replay.regular_at(int(i))
            for i in rng.choice(n_reg, size=n - half, replace=n_reg < n - half)
        ]
        return picks

    def _gather(self, name: str, rows: list[np.ndarray], width: int) -> np.ndarray:
        """``np.vstack(rows)`` into the reused ``(len(rows), width)`` buffer."""
        out = reuse(self._minibatch, name, (len(rows), width))
        np.concatenate(rows, out=out.reshape(-1))
        return out

    def train_batch(self) -> float:
        """One minibatch of MSE regression on taken-action predictions."""
        c = self.config
        if len(self.replay) == 0:
            return 0.0
        n = min(c.batch_size, len(self.replay))
        batch = self._sample_batch(n)
        states = self._gather("state", [e.state for e in batch], c.state_dim)
        meas = self._gather("meas", [e.measurement for e in batch], c.n_measurements)
        goals = self._gather("goal", [e.goal for e in batch], c.n_measurements)
        actions = np.array([e.action for e in batch])
        targets_taken = self._gather("target", [e.target for e in batch], c.pred_dim)

        preds = self.network.forward(states, meas, goals)
        targets = preds.copy()
        targets[np.arange(n), actions] = targets_taken
        mask = np.zeros_like(preds)
        mask[np.arange(n), actions] = 1.0

        loss, grad = mse_loss(preds, targets, mask=mask)
        self.network.backward(grad)
        self.optimizer.clip_gradients(c.grad_clip)
        self.optimizer.step()
        return loss

    def train_epoch(self, n_batches: int | None = None) -> float:
        """Run ``n_batches`` replay updates; returns the mean loss."""
        if n_batches is None:
            n_batches = self.config.train_batches_per_episode
        losses = [self.train_batch() for _ in range(n_batches)]
        return float(np.mean(losses)) if losses else 0.0

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        out = self.network.state_dict()
        out["__epsilon__"] = np.array([self.epsilon])
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        state = dict(state)
        eps = state.pop("__epsilon__", None)
        self.network.load_state_dict(state)
        if eps is not None:
            self.epsilon = float(np.asarray(eps).ravel()[0])
