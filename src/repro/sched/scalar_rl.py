"""The *Scalar RL* baseline: policy gradient with a fixed-weight reward.

The paper's third comparator (§IV-D) represents the straightforward
extension of single-resource RL schedulers (DeepRM, RLScheduler) to
multiple resources: a policy-gradient agent whose scalar reward fixes
the priority of every resource up front —
``0.5 · CPU util + 0.5 · BB util`` for two resources (equal weights in
general). The motivating example of Fig. 1 shows exactly why this static
weighting underperforms MRSch's dynamic goal vector.

Implementation: REINFORCE (Monte-Carlo policy gradient) over a masked
softmax policy. The observation is a compact window encoding — per slot
the (R+2) job vector of §III-A, plus the per-resource free fraction —
and the action picks a window slot.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, LeakyReLU
from repro.nn.network import Sequential
from repro.nn.optim import Adam
from repro.sched.base import SchedulingContext, Scheduler
from repro.utils.rng import as_generator, spawn_generators
from repro.workload.job import Job

__all__ = ["ScalarRLScheduler"]

_NEG_INF = -1e30


class ScalarRLScheduler(Scheduler):
    """REINFORCE scheduler with a fixed scalar multi-resource reward."""

    name = "scalar_rl"

    def __init__(
        self,
        system,
        window_size: int = 10,
        backfill: bool = True,
        hidden: tuple[int, int] = (64, 64),
        lr: float = 1e-3,
        gamma: float = 0.99,
        reward_weights: dict[str, float] | None = None,
        walltime_scale: float = 3600.0 * 4,
        wait_scale: float = 3600.0 * 4,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(window_size=window_size, backfill=backfill)
        self.system = system
        self.gamma = gamma
        self.walltime_scale = walltime_scale
        self.wait_scale = wait_scale
        self.rng = as_generator(seed)
        names = system.names
        if reward_weights is None:
            # Paper: 0.5/0.5 for two resources; equal weights generally.
            reward_weights = {n: 1.0 / len(names) for n in names}
        if abs(sum(reward_weights.values()) - 1.0) > 1e-6:
            raise ValueError("reward weights must sum to 1")
        self.reward_weights = reward_weights

        self.n_resources = len(names)
        self.obs_dim = window_size * (self.n_resources + 2) + self.n_resources
        rngs = spawn_generators(self.rng, 3)
        self.policy = Sequential(
            [
                Dense(self.obs_dim, hidden[0], rng=rngs[0], input_grad=False),
                LeakyReLU(),
                Dense(hidden[0], hidden[1], rng=rngs[1]),
                LeakyReLU(),
                Dense(hidden[1], window_size, rng=rngs[2]),
            ]
        )
        self.optimizer = Adam(self.policy.layers, lr=lr)
        self.training = False
        self._episode: list[tuple[np.ndarray, np.ndarray, int, float]] = []

    # -- observation / reward ------------------------------------------------

    def encode(self, window: list[Job], ctx: SchedulingContext) -> tuple[np.ndarray, np.ndarray]:
        """Return (observation, valid-slot mask)."""
        names = self.system.names
        caps = self.system.capacities
        obs = np.zeros(self.obs_dim)
        mask = np.zeros(self.window_size, dtype=bool)
        per = self.n_resources + 2
        for slot, job in enumerate(window[: self.window_size]):
            base = slot * per
            req = np.array([job.request(n) for n in names], dtype=float) / caps
            obs[base : base + self.n_resources] = req
            obs[base + self.n_resources] = min(job.walltime / self.walltime_scale, 4.0)
            obs[base + self.n_resources + 1] = min(
                (ctx.now - job.submit_time) / self.wait_scale, 4.0
            )
            mask[slot] = True
        obs[-self.n_resources :] = np.array(
            [ctx.pool.free_units(n) for n in names], dtype=float
        ) / caps
        return obs, mask

    def reward(self, ctx: SchedulingContext) -> float:
        """Fixed-weight scalar utilization reward."""
        return float(
            sum(
                self.reward_weights[n] * ctx.pool.utilization(n)
                for n in self.system.names
            )
        )

    # -- policy ------------------------------------------------------------

    def _probabilities(self, obs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        logits = self.policy.forward(obs[None, :])[0]
        logits = np.where(mask, logits, _NEG_INF)
        shifted = logits - logits.max()
        exp = np.exp(shifted)
        return exp / exp.sum()

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        if not window:
            return None
        if len(window) == 1 and not self.training:
            # The masked arg-max over one populated slot is that slot;
            # training still samples (and records) through the policy.
            return window[0]
        obs, mask = self.encode(window, ctx)
        probs = self._probabilities(obs, mask)
        self.decisions_scored += 1
        if self.training:
            action = int(self.rng.choice(self.window_size, p=probs))
        else:
            action = int(np.argmax(probs))
        job = window[min(action, len(window) - 1)]
        if self.training:
            # Reward observed after the environment applies the action;
            # stored lazily as the utilization at the *next* decision.
            self._episode.append((obs, mask, action, self.reward(ctx)))
        return job

    # -- training ------------------------------------------------------------

    def reset(self) -> None:
        super().reset()

    def start_episode(self) -> None:
        self._episode = []

    def finish_episode(self) -> float:
        """REINFORCE update over the recorded episode; returns the loss."""
        if not self._episode:
            return 0.0
        rewards = np.array([step[3] for step in self._episode])
        returns = np.empty_like(rewards)
        acc = 0.0
        for t in range(len(rewards) - 1, -1, -1):
            acc = rewards[t] + self.gamma * acc
            returns[t] = acc
        adv = returns - returns.mean()
        std = returns.std()
        if std > 1e-8:
            adv = adv / std

        obs = np.vstack([step[0] for step in self._episode])
        masks = np.vstack([step[1] for step in self._episode])
        actions = np.array([step[2] for step in self._episode])

        logits = self.policy.forward(obs)
        logits = np.where(masks, logits, _NEG_INF)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)

        onehot = np.zeros_like(probs)
        onehot[np.arange(len(actions)), actions] = 1.0
        # d(-Σ adv·log π(a)) / dlogits = adv · (π - onehot), per sample.
        grad_logits = adv[:, None] * (probs - onehot) / len(actions)
        grad_logits = np.where(masks, grad_logits, 0.0)

        self.policy.backward(grad_logits)
        self.optimizer.clip_gradients(5.0)
        self.optimizer.step()

        log_probs = np.log(np.clip(probs[np.arange(len(actions)), actions], 1e-12, 1.0))
        loss = float(-(adv * log_probs).mean())
        self._episode = []
        return loss
