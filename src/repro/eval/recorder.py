"""Simulator-side capture of scheduling decisions.

A :class:`DecisionTraceRecorder` attaches to any
:class:`~repro.sched.base.Scheduler` via its ``decision_recorder``
attribute; the shared §III-C selection loop then reports every selection
(fitting starts *and* the reservation pick). Policies that already
compute DFP inputs expose them through
:meth:`~repro.sched.base.Scheduler.decision_features` so the trace
stores the policy's *own* state/goal/prior/scores bit-for-bit; for
heuristics the recorder derives canonical features itself (the §III-A
encoding, the live measurement vector and the Eq. 1 dynamic goal), so
traces recorded from any policy are scoreable by any other.

Recording is strictly passive: it consumes no RNG and mutates no
scheduler or simulator state, so a recorded replay produces bit-identical
metrics to an unrecorded one.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import StateEncoder
from repro.core.goal import goal_vector
from repro.core.measurements import measurement_vector
from repro.eval.trace import EXTRA_FEATURES, DecisionTrace

__all__ = ["DecisionTraceRecorder"]


class DecisionTraceRecorder:
    """Collects per-decision columns during one simulated replay.

    Usage::

        recorder = DecisionTraceRecorder()
        recorder.start(method="mrsch", workload="S3", seed=7, task_key=key)
        scheduler.decision_recorder = recorder
        Simulator(system, scheduler).run(jobs)
        trace = recorder.finish()
    """

    def __init__(self, time_scale: float = 4 * 3600.0) -> None:
        self.time_scale = time_scale
        self._encoder: StateEncoder | None = None
        self._context: dict = {}
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self._states: list[np.ndarray] = []
        self._measurements: list[np.ndarray] = []
        self._goals: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        self._priors: list[np.ndarray] = []
        self._scores: list[np.ndarray | None] = []
        self._actions: list[int] = []
        self._times: list[float] = []
        self._job_ids: list[np.ndarray] = []
        self._job_features: list[np.ndarray] = []
        self._window_size: int | None = None
        self._policy_meta: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def start(
        self,
        *,
        method: str = "",
        workload: str = "",
        seed: int | None = None,
        task_key: str = "",
    ) -> None:
        """Begin a fresh trace segment (one per evaluated workload)."""
        self._reset_buffers()
        self._context = {
            "method": method,
            "workload": workload,
            "seed": seed,
            "task_key": task_key,
        }

    @property
    def n_decisions(self) -> int:
        return len(self._actions)

    # -- capture -----------------------------------------------------------

    def _generic_encoder(self, system, window_size: int) -> StateEncoder:
        if (
            self._encoder is None
            or self._encoder.system is not system
            or self._encoder.window_size != window_size
        ):
            self._encoder = StateEncoder(
                system, window_size=window_size, time_scale=self.time_scale
            )
        return self._encoder

    def on_decision(self, scheduler, window, job, ctx) -> None:
        """Record one selection; called by the scheduler base loop."""
        w = scheduler.window_size
        if self._window_size is None:
            self._window_size = w
            self._policy_meta = {
                "prior_weight": float(getattr(scheduler, "prior_weight", 0.0)),
                "scheduler": getattr(scheduler, "name", type(scheduler).__name__),
            }
        elif w != self._window_size:
            raise ValueError(
                f"one trace cannot mix window sizes ({self._window_size} vs {w})"
            )

        action = window.index(job)
        features = scheduler.decision_features(window, ctx)
        if features is None:
            encoder = self._generic_encoder(ctx.system, w)
            state = encoder.encode(window, ctx.pool, ctx.now)
            measurement = measurement_vector(ctx.pool)
            goal = goal_vector(ctx.queue, ctx.running, ctx.system, ctx.now)
            prior = scores = None
            slot_dim = encoder.job_dim
        else:
            state = features["state"]
            measurement = features["measurement"]
            goal = features["goal"]
            prior = features.get("prior")
            scores = features.get("scores")
            slot_dim = features.get("slot_dim", 0)
        # The per-slot feature width inside the state vector — what a
        # replayed DFP agent needs to reconstruct its shared-head config.
        self._policy_meta.setdefault("slot_dim", int(slot_dim))

        mask = np.zeros(w, dtype=bool)
        mask[: min(len(window), w)] = True

        names = ctx.system.names
        caps = ctx.system.capacities
        n_feats = len(names) + len(EXTRA_FEATURES)
        job_feats = np.zeros((w, n_feats))
        job_ids = np.full(w, -1, dtype=np.int64)
        for slot, cand in enumerate(window[:w]):
            req = np.array([cand.request(n) for n in names], dtype=float)
            job_feats[slot, : len(names)] = req / caps
            job_feats[slot, len(names)] = cand.walltime
            job_feats[slot, len(names) + 1] = ctx.now - cand.submit_time
            job_feats[slot, len(names) + 2] = float(ctx.pool.can_fit(cand))
            job_ids[slot] = cand.job_id

        self._states.append(np.asarray(state, dtype=float).copy())
        self._measurements.append(np.asarray(measurement, dtype=float).copy())
        self._goals.append(np.asarray(goal, dtype=float).copy())
        self._masks.append(mask)
        self._priors.append(
            np.zeros(w) if prior is None else np.asarray(prior, dtype=float).copy()
        )
        self._scores.append(
            None if scores is None else np.asarray(scores, dtype=float).copy()
        )
        self._actions.append(action)
        self._times.append(float(ctx.now))
        self._job_ids.append(job_ids)
        self._job_features.append(job_feats)
        if "resources" not in self._context:
            self._context["resources"] = list(names)
            self._context["capacities"] = [float(c) for c in caps]
            self._context["feature_names"] = [
                *(f"req_frac:{n}" for n in names),
                *EXTRA_FEATURES,
            ]

    # -- finalisation ------------------------------------------------------

    def finish(self, **extra_meta) -> DecisionTrace:
        """Assemble the buffered decisions into a :class:`DecisionTrace`."""
        if not self._actions:
            raise ValueError(
                "no decisions recorded; attach the recorder as "
                "scheduler.decision_recorder before Simulator.run"
            )
        w = self._window_size or 0
        scores = np.vstack(
            [np.full(w, np.nan) if s is None else s for s in self._scores]
        )
        meta = {
            **self._context,
            **self._policy_meta,
            "state_dim": int(self._states[0].shape[0]),
            "n_measurements": int(self._measurements[0].shape[0]),
            "window_size": int(w),
            **extra_meta,
        }
        trace = DecisionTrace(
            states=np.vstack(self._states),
            measurements=np.vstack(self._measurements),
            goals=np.vstack(self._goals),
            masks=np.vstack(self._masks),
            priors=np.vstack(self._priors),
            scores=scores,
            actions=np.asarray(self._actions, dtype=np.int64),
            times=np.asarray(self._times, dtype=float),
            job_ids=np.vstack(self._job_ids),
            job_features=np.stack(self._job_features),
            meta=meta,
        )
        self._reset_buffers()
        return trace
