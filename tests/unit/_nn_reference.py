"""The allocating training step, kept as the oracle.

These are the bodies ``repro.nn`` and ``repro.core.dfp`` shipped before
the training step learned to reuse its storage: every product,
activation and optimiser term lands in a fresh array, every input
gradient is computed, the minibatch is ``vstack``-ed and the joint /
slot inputs are ``concatenate``-d / ``reshape``-d afresh. The library's
buffered step must reproduce them bit for bit — it only re-uses memory
and drops a product nobody reads — and ``test_nn_gradients.py`` holds it
to that.

The library's layers *overwrite* ``grads`` on every backward pass; the
reference layers accumulate into them (``grads += ...``), so the
reference agent zeroes them before each backward pass
(:func:`zero_grads`).

The shared action head's first layer is *defined* factored
(:class:`repro.nn.layers.SlotDense`: the joint product once per row, the
slot product per slot); :class:`ReferenceSlotDense` is that definition
in plain ``@`` / ``np.repeat``, bit-equal to the library. The form it
replaced — one GEMM over the ``(B·A, joint ⊕ slot)`` concatenation,
which sums the same terms in another order — survives here as
:func:`concatenated_head` / :class:`ConcatenatedSlotDense`, the oracle
the README reassociation budget is stated against
(:func:`as_concatenating` builds the twin).

:func:`as_reference` re-classes a freshly built object's layers,
network, optimiser and agent onto the classes below, so the twin shares
the constructor (initial weights, RNG streams) with the object under
test and differs only in how it computes.
"""

from __future__ import annotations

import numpy as np

from repro.core.dfp import DFPAgent, DFPNetwork
from repro.nn.layers import Dense, LeakyReLU, SlotDense
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam

__all__ = [
    "ReferenceDense",
    "ReferenceSlotDense",
    "ReferenceLeakyReLU",
    "ReferenceAdam",
    "ConcatenatedSlotDense",
    "concatenated_head",
    "concatenated_rows",
    "as_reference",
    "as_concatenating",
    "zero_grads",
]


class ReferenceDense(Dense):
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input (B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grads["W"] += self._x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


class ReferenceSlotDense(SlotDense):
    def forward(self, x) -> np.ndarray:
        joint, slots = self._x = x
        j = self.joint_features
        w, b = self.params["W"], self.params["b"]
        n_slots = slots.shape[0] // joint.shape[0]
        return slots @ w[j:] + np.repeat(joint @ w[:j] + b, n_slots, axis=0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        joint, slots = self._x
        j = self.joint_features
        summed = grad_out.reshape(joint.shape[0], -1, self.out_features).sum(axis=1)
        self.grads["W"][:j] += joint.T @ summed
        self.grads["W"][j:] += slots.T @ grad_out
        self.grads["b"] += summed.sum(axis=0)
        return summed @ self.params["W"][:j].T


def concatenated_rows(joint: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The ``(B·A, joint ⊕ slot)`` input ``SlotDense`` never builds."""
    n_slots = slots.shape[0] // joint.shape[0]
    return np.concatenate([np.repeat(joint, n_slots, axis=0), slots], axis=1)


def concatenated_head(
    joint: np.ndarray, slots: np.ndarray, w: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The shared head's first layer as one GEMM over the concatenated
    rows — what ``SlotDense`` factors."""
    return concatenated_rows(joint, slots) @ w + b


class ConcatenatedSlotDense(SlotDense):
    """The parent layout: a plain ``Dense`` over the concatenation, the
    joint gradient summed back over slots afterwards."""

    def forward(self, x) -> np.ndarray:
        self._x = x
        return concatenated_head(*x, self.params["W"], self.params["b"])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # Runs inside a library agent, which never zeroes: overwrite.
        joint, slots = self._x
        self.grads["W"][...] = concatenated_rows(joint, slots).T @ grad_out
        self.grads["b"][...] = grad_out.sum(axis=0)
        grad_joint = (grad_out @ self.params["W"].T)[:, : self.joint_features]
        return grad_joint.reshape(joint.shape[0], -1, self.joint_features).sum(axis=1)


class ReferenceLeakyReLU(LeakyReLU):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * np.where(self._mask, 1.0, self.alpha)


class ReferenceAdam(Adam):
    def step(self) -> None:
        self.steps += 1
        for li, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                self._reference_update(f"{li}.{name}", param, layer.grads[name])

    def _reference_update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.setdefault(key, np.zeros_like(param))
        v = self._v.setdefault(key, np.zeros_like(param))
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**self.steps)
        v_hat = v / (1.0 - self.beta2**self.steps)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def clip_gradients(self, max_norm: float) -> float:
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        total = 0.0
        for layer in self.layers:
            for grad in layer.grads.values():
                total += float((grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for layer in self.layers:
                for grad in layer.grads.values():
                    grad *= scale
        return norm


def zero_grads(layers) -> None:
    """Zero every gradient of ``layers``: the reference layers accumulate."""
    for layer in layers:
        for grad in layer.grads.values():
            grad[...] = 0.0


class ReferenceDFPNetwork(DFPNetwork):
    def forward(self, state, measurement, goal) -> np.ndarray:
        c = self.config
        s = self.state_net.forward(state)
        m = self.meas_net.forward(measurement)
        g = self.goal_net.forward(goal)
        joint = np.concatenate([s, m, g], axis=1)
        expectation = self.expectation_stream.forward(joint)
        batch = joint.shape[0]
        if c.action_stream == "shared":
            slots = state[:, : c.n_actions * c.slot_dim].reshape(
                batch * c.n_actions, c.slot_dim
            )
            actions = self.action_stream.forward((joint, slots)).reshape(
                batch, c.n_actions, c.pred_dim
            )
        else:
            raw = self.action_stream.forward(joint)
            actions = raw.reshape(batch, c.n_actions, c.pred_dim)
        normalised = actions - actions.mean(axis=1, keepdims=True)
        return expectation[:, None, :] + normalised

    def backward(self, grad_pred: np.ndarray) -> None:
        c = self.config
        batch = grad_pred.shape[0]
        grad_exp = grad_pred.sum(axis=1)
        grad_act = grad_pred - grad_pred.mean(axis=1, keepdims=True)
        grad_joint = self.expectation_stream.backward(grad_exp)
        if c.action_stream == "shared":
            grad_joint = grad_joint + self.action_stream.backward(
                grad_act.reshape(batch * c.n_actions, c.pred_dim)
            )
        else:
            grad_joint = grad_joint + self.action_stream.backward(
                grad_act.reshape(batch, c.n_actions * c.pred_dim)
            )
        i, j = self._joint_splits
        self.state_net.backward(grad_joint[:, :i])
        self.meas_net.backward(grad_joint[:, i:j])
        self.goal_net.backward(grad_joint[:, j:])


class ReferenceDFPAgent(DFPAgent):
    def train_batch(self) -> float:
        c = self.config
        if len(self.replay) == 0:
            return 0.0
        n = min(c.batch_size, len(self.replay))
        batch = self._sample_batch(n)
        states = np.vstack([e.state for e in batch])
        meas = np.vstack([e.measurement for e in batch])
        goals = np.vstack([e.goal for e in batch])
        actions = np.array([e.action for e in batch])
        targets_taken = np.vstack([e.target for e in batch])

        preds = self.network.forward(states, meas, goals)
        targets = preds.copy()
        targets[np.arange(n), actions] = targets_taken
        mask = np.zeros_like(preds)
        mask[np.arange(n), actions] = 1.0

        loss, grad = mse_loss(preds, targets, mask=mask)
        zero_grads(self.optimizer.layers)
        self.network.backward(grad)
        self.optimizer.clip_gradients(c.grad_clip)
        self.optimizer.step()
        return loss


_REFERENCE = {
    Dense: ReferenceDense,
    SlotDense: ReferenceSlotDense,
    LeakyReLU: ReferenceLeakyReLU,
    Adam: ReferenceAdam,
    DFPNetwork: ReferenceDFPNetwork,
    DFPAgent: ReferenceDFPAgent,
}


def as_reference(obj, *more):
    """Re-class ``obj`` (a layer, optimiser, network or agent — an agent
    brings its network, layers and optimiser along) onto the allocating
    implementation; returns ``obj``."""
    for item in (obj, *more):
        if isinstance(item, DFPAgent):
            as_reference(item.network, item.optimizer, *item.network.layers)
        reference = _REFERENCE.get(type(item))
        if reference is not None:
            item.__class__ = reference
    return obj


def as_concatenating(obj):
    """Re-class the shared head's first layer of ``obj`` (an agent or a
    network) onto the concatenated GEMM — the arithmetic of the layout
    ``SlotDense`` replaced; returns ``obj``."""
    head = getattr(obj, "network", obj).action_stream.layers[0]
    assert type(head) is SlotDense, "shared action stream required"
    head.__class__ = ConcatenatedSlotDense
    return obj
