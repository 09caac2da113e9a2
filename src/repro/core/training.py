"""Episode runner and the §III-D three-phase training curriculum.

Both trainable schedulers — MRSch and the scalar-RL baseline — share the
same episode protocol (``training`` flag, ``start_episode`` /
``finish_episode``), so one runner trains either. The curriculum trainer
consumes the job-set dictionary from
:func:`repro.workload.sampling.build_curriculum` in any phase order,
which is exactly what the Fig. 4 ordering study sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.obs import runtime as _obs
from repro.sched.base import Scheduler
from repro.sim.simulator import Simulator
from repro.workload.job import Job

__all__ = ["TrainingResult", "train_episodes", "curriculum_training"]

#: canonical Fig. 4 phase order (fastest convergence in the paper)
DEFAULT_PHASE_ORDER = ("sampled", "real", "synthetic")


@dataclass
class TrainingResult:
    """Loss trajectory of one training run."""

    losses: list[float] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)

    @property
    def episodes(self) -> int:
        return len(self.losses)

    def final_loss(self, tail: int = 5) -> float:
        """Mean loss over the last ``tail`` episodes (convergence level)."""
        if tail < 1:
            raise ValueError("tail must be >= 1")
        if not self.losses:
            return 0.0
        return float(np.mean(self.losses[-tail:]))


def _check_trainable(scheduler: Scheduler) -> None:
    for attr in ("training", "start_episode", "finish_episode"):
        if not hasattr(scheduler, attr):
            raise TypeError(
                f"{scheduler.name} is not trainable (missing {attr!r}); "
                "only MRSch and scalar RL learn from episodes"
            )


def _learn(scheduler: Scheduler, phase: str, result: TrainingResult) -> None:
    """Learn from ``scheduler``'s finished episode and append it to ``result``.

    With a telemetry session on, also emits one ``train_episode`` event
    (phase, loss, ε, replay size, optimiser batches, learning wall);
    with it off nothing is timed.
    """
    session = _obs.session
    learner = getattr(scheduler, "agent", scheduler)
    optimizer = getattr(learner, "optimizer", None)
    if session is not None:
        start = perf_counter()
        steps_before = getattr(optimizer, "steps", 0)
    loss = scheduler.finish_episode()  # type: ignore[attr-defined]
    epsilon = float(getattr(learner, "epsilon", np.nan))
    result.losses.append(loss)
    result.phases.append(phase)
    result.epsilons.append(epsilon)
    if session is not None:
        replay = getattr(learner, "replay", None)
        session.event(
            "train_episode",
            phase=phase,
            episode=result.episodes,
            loss=float(loss),
            epsilon=None if np.isnan(epsilon) else epsilon,
            replay_size=None if replay is None else len(replay),
            batches=getattr(optimizer, "steps", 0) - steps_before,
            train_wall_s=perf_counter() - start,
        )


def train_episodes(
    scheduler: Scheduler,
    jobsets: list[list[Job]],
    system: SystemConfig,
    phase: str = "train",
    result: TrainingResult | None = None,
) -> TrainingResult:
    """Run one training episode per job set and learn after each.

    The scheduler is left in inference mode (``training = False``) when
    done. Passing an existing ``result`` appends, so phases chain.
    """
    _check_trainable(scheduler)
    result = result or TrainingResult()
    sim = Simulator(system, scheduler, record_timeline=False)
    try:
        scheduler.training = True  # type: ignore[attr-defined]
        for jobs in jobsets:
            scheduler.start_episode()  # type: ignore[attr-defined]
            sim.run(jobs)
            _learn(scheduler, phase, result)
    finally:
        scheduler.training = False  # type: ignore[attr-defined]
    return result


def curriculum_training(
    scheduler: Scheduler,
    curriculum: dict[str, list[list[Job]]],
    system: SystemConfig,
    order: tuple[str, ...] = DEFAULT_PHASE_ORDER,
) -> TrainingResult:
    """Train through curriculum phases in the given order (§III-D).

    ``order`` must be a permutation of the curriculum's keys; Fig. 4
    compares all six orderings of (sampled, real, synthetic).
    """
    if sorted(order) != sorted(curriculum.keys()):
        raise ValueError(
            f"order {order} must permute the curriculum phases {sorted(curriculum)}"
        )
    result = TrainingResult()
    for phase in order:
        train_episodes(scheduler, curriculum[phase], system, phase=phase, result=result)
    return result
