"""Offline scheduling policies scoreable on recorded decision traces.

An *offline policy* is a callable ``(trace) -> (N, W) scores``: given a
:class:`~repro.eval.trace.DecisionTrace` it scores every candidate slot
of every recorded decision in one vectorised pass. Feature-based
heuristics (FCFS order, shortest-walltime, goal-weighted demand, the
MRSch feasibility/age prior) register here by name; DFP agents replay
through :class:`DFPReplayPolicy`, which drives the batched
:meth:`~repro.core.dfp.DFPAgent.action_scores_batch` path — the fast
inference route that the live event loop never uses.

Register additional policies with :func:`register_eval_policy`::

    @register_eval_policy("widest", description="most nodes first")
    def widest(trace):
        return trace.feature("req_frac:node")
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.prior import guided_scores, prior_scores
from repro.eval.trace import DecisionTrace

__all__ = [
    "EvalPolicyEntry",
    "register_eval_policy",
    "get_eval_policy",
    "list_eval_policies",
    "describe_eval_policies",
    "build_policies",
    "DFPReplayPolicy",
]


@dataclass(frozen=True)
class EvalPolicyEntry:
    """One registered offline policy."""

    name: str
    scorer: Callable[[DecisionTrace], np.ndarray]
    description: str = ""


_POLICIES: dict[str, EvalPolicyEntry] = {}


def register_eval_policy(name: str, *, description: str = "") -> Callable:
    """Register an offline policy ``(trace) -> (N, W) scores`` under ``name``."""

    def decorator(fn: Callable) -> Callable:
        clashes = [n for n in _POLICIES if n.lower() == name.lower()]
        if clashes:
            raise ValueError(
                f"eval policy {name!r} is already registered (as {clashes[0]!r})"
            )
        _POLICIES[name] = EvalPolicyEntry(
            name=name, scorer=fn, description=description or (fn.__doc__ or "")
        )
        return fn

    return decorator


def get_eval_policy(name: str) -> EvalPolicyEntry:
    """Case-insensitive lookup with the available names on failure."""
    entry = _POLICIES.get(name)
    if entry is None:
        folded = str(name).lower()
        entry = next(
            (e for n, e in _POLICIES.items() if n.lower() == folded), None
        )
    if entry is None:
        raise KeyError(
            f"unknown eval policy {name!r}; available: "
            f"{', '.join(list_eval_policies())}"
        )
    return entry


def list_eval_policies() -> tuple[str, ...]:
    """Registered offline policy names, registration order."""
    return tuple(_POLICIES)


def describe_eval_policies() -> dict:
    """``{name: first description line}`` for every registered policy."""
    return {
        e.name: (e.description.strip().splitlines() or [""])[0]
        for e in _POLICIES.values()
    }


def build_policies(
    spec: "Sequence[str] | Mapping[str, Callable]",
) -> "dict[str, Callable[[DecisionTrace], np.ndarray]]":
    """Resolve a policy spec (names, or name → callable) to scorers."""
    if isinstance(spec, Mapping):
        return dict(spec)
    out: dict[str, Callable] = {}
    for name in spec:
        entry = get_eval_policy(name)
        out[entry.name] = entry.scorer
    return out


# -- feature helpers ----------------------------------------------------------


def _n_resources(trace: DecisionTrace) -> int:
    return len(trace.meta.get("resources", ())) or trace.goals.shape[1]


def _demand(trace: DecisionTrace) -> np.ndarray:
    """Goal-weighted request fractions per slot, (N, W)."""
    r = _n_resources(trace)
    return np.einsum("nwr,nr->nw", trace.job_features[:, :, :r], trace.goals)


# -- built-in heuristics ------------------------------------------------------


@register_eval_policy("fcfs", description="queue order: oldest window slot first")
def fcfs_policy(trace: DecisionTrace) -> np.ndarray:
    return np.broadcast_to(
        -np.arange(trace.window_size, dtype=float), trace.masks.shape
    ).copy()


@register_eval_policy("shortest_job", description="shortest user walltime first")
def shortest_job_policy(trace: DecisionTrace) -> np.ndarray:
    return -trace.feature("walltime")


@register_eval_policy("longest_queued", description="longest-waiting candidate first")
def longest_queued_policy(trace: DecisionTrace) -> np.ndarray:
    return trace.feature("queued")


@register_eval_policy(
    "smallest_demand", description="cheapest goal-weighted resource demand first"
)
def smallest_demand_policy(trace: DecisionTrace) -> np.ndarray:
    return -_demand(trace)


@register_eval_policy(
    "largest_demand", description="largest goal-weighted resource demand first"
)
def largest_demand_policy(trace: DecisionTrace) -> np.ndarray:
    return _demand(trace)


@register_eval_policy(
    "prior",
    description="the MRSch feasibility/age prior: fitting jobs by cheapest "
    "demand, else the longest waiter",
)
def prior_policy(trace: DecisionTrace) -> np.ndarray:
    return prior_scores(trace.feature("fits") > 0.5, _demand(trace))


@register_eval_policy(
    "logged", description="the recorded policy itself (one-hot on its choices)"
)
def logged_policy(trace: DecisionTrace) -> np.ndarray:
    scores = np.zeros(trace.masks.shape)
    scores[np.arange(trace.n_decisions), trace.actions] = 1.0
    return scores


# -- DFP replay ---------------------------------------------------------------


class DFPReplayPolicy:
    """Replay a DFP agent over a trace via the batched scoring path.

    Reproduces the live :class:`~repro.core.mrsch.MRSchScheduler`
    decision rule — prior-guided when ``prior_weight > 0`` (prior ranks,
    peak-normalised DFP scores tie-break) and pure goal-weighted argmax
    otherwise — but in one
    :meth:`~repro.core.dfp.DFPAgent.action_scores_batch` forward pass
    over all N decisions. The batched path evaluates the full prediction
    tensor where the live loop uses the folded last-layer contraction,
    so scores match the recorded ones only up to float re-association
    (~1e-15 relative); exact score ties could in principle resolve
    differently, which is the documented fidelity tolerance.

    ``prior_weight`` defaults to the value stored in each trace's
    metadata, i.e. the recorded scheduler's own configuration; the
    tie-break cap is always :data:`~repro.core.prior.DFP_TIEBREAK_SCALE`.
    """

    def __init__(self, agent, prior_weight: float | None = None):
        self.agent = agent
        self.prior_weight = prior_weight

    @classmethod
    def from_scheduler(cls, scheduler) -> "DFPReplayPolicy":
        """Wrap a live :class:`~repro.core.mrsch.MRSchScheduler`'s agent."""
        return cls(scheduler.agent, prior_weight=float(scheduler.prior_weight))

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        trace: DecisionTrace,
        prior_weight: float | None = None,
        dfp_config=None,
    ) -> "DFPReplayPolicy":
        """Load an agent checkpoint sized from ``trace`` metadata."""
        from repro.core.dfp import DFPAgent, DFPConfig
        from repro.nn.serialize import load_params

        if dfp_config is None:
            meta = trace.meta
            dfp_config = DFPConfig(
                state_dim=int(meta["state_dim"]),
                n_measurements=int(meta["n_measurements"]),
                n_actions=int(meta["window_size"]),
                slot_dim=int(meta["slot_dim"]) if meta.get("slot_dim") else None,
            )
        agent = DFPAgent(dfp_config)
        agent.load_state_dict(load_params(path))
        return cls(agent, prior_weight=prior_weight)

    def __call__(self, trace: DecisionTrace) -> np.ndarray:
        raw = self.agent.action_scores_batch(
            trace.states, trace.measurements, trace.goals
        )
        pw = self.prior_weight
        if pw is None:
            pw = float(trace.meta.get("prior_weight", 0.0))
        if pw <= 0.0:
            return raw
        # MRSchScheduler._apply_decision's rule, row by row
        return guided_scores(pw, trace.priors, raw, trace.masks)
