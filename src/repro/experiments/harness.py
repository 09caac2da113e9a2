"""Shared experiment machinery: the steps a cell runs.

One :class:`ExperimentConfig` (:mod:`repro.experiments.config`,
re-exported here) fixes the system scale, trace size, training budget
and RNG seed of an experiment; the harness then builds the base trace,
instantiates any method by paper name and trains the trainable ones on
the §III-D curriculum;
:func:`repro.exp.tasks.replay_cell` puts these steps together and
replays the evaluation workloads.

Scale note: defaults target the miniature Theta
(``SystemConfig.mini_theta``) so that a full (4 methods × 5 workloads)
grid runs in minutes on a laptop. All the knobs — node/BB counts, job
counts, GA budget, training episodes — are explicit, so the same harness
drives full-scale runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.registry import SCHEDULERS
from repro.cluster.resources import SystemConfig
from repro.experiments.config import ExperimentConfig
from repro.sched.base import Scheduler
from repro.utils.rng import as_generator, spawn_generators
from repro.workload.job import Job
from repro.workload.sampling import build_curriculum
from repro.workload.suites import build_case_study_workload, build_workload
from repro.workload.theta import generate_theta_trace

if TYPE_CHECKING:
    from repro.core.training import TrainingResult

__all__ = ["ExperimentConfig", "prepare_base_trace", "train_method"]


def prepare_base_trace(config: ExperimentConfig, n_jobs: int | None = None) -> list[Job]:
    """Generate the Theta-like base trace for an experiment."""
    return generate_theta_trace(config.trace_config(n_jobs), seed=config.seed)


def make_method(
    name: str,
    system: SystemConfig,
    config: ExperimentConfig,
    seed: int | None = None,
    **kwargs,
) -> Scheduler:
    """Instantiate a registered method with the experiment's sizing applied.

    The registry entry's ``config_options`` map experiment-level knobs
    to constructor kwargs (the NSGA-II budget, for instance). Per-method
    ``kwargs`` (scenario options / ``ExperimentTask.extra``) take
    precedence over the config-wide sizing, so an option like
    ``window_size`` overrides instead of colliding.
    """
    seed = config.seed if seed is None else seed
    entry = SCHEDULERS.get(name)
    for attr, ctor_kwarg in entry.config_options:
        kwargs.setdefault(ctor_kwarg, getattr(config, attr))
    call_kwargs = {"window_size": config.window_size, "seed": seed, **kwargs}
    return entry.build(system, **call_kwargs)


def train_method(
    scheduler: Scheduler,
    system: SystemConfig,
    config: ExperimentConfig,
    base_jobs: list[Job] | None = None,
    order: tuple[str, ...] = ("sampled", "real", "synthetic"),
) -> TrainingResult | None:
    """Curriculum-train a scheduler if it is trainable; no-op otherwise.

    Training workloads are built on the same system with the same
    workload transformation as evaluation (S-series requests), using
    independent RNG streams so train/test traces differ.
    """
    if not hasattr(scheduler, "finish_episode"):
        return None
    from repro.core.training import curriculum_training

    rng = as_generator(config.seed + 17)
    base_jobs = base_jobs or prepare_base_trace(config, n_jobs=config.jobs_per_trainset * 3)
    n_sampled, n_real, n_synth = config.curriculum_sets
    curriculum = build_curriculum(
        base_jobs,
        config.trace_config(config.jobs_per_trainset),
        n_sampled=n_sampled,
        n_real=n_real,
        n_synthetic=n_synth,
        jobs_per_set=config.jobs_per_trainset,
        seed=rng,
    )
    # Apply the workload transformation (BB/power requests) to every
    # training set so the agent trains on the resource mix it will face.
    workload_rngs = spawn_generators(rng, sum(len(v) for v in curriculum.values()))
    i = 0
    for phase, sets in curriculum.items():
        transformed = []
        for jobset in sets:
            transformed.append(_training_workload(jobset, system, workload_rngs[i]))
            i += 1
        curriculum[phase] = transformed
    return curriculum_training(scheduler, curriculum, system, order=order)


def _training_workload(jobset: list[Job], system: SystemConfig, rng) -> list[Job]:
    """Mid-ladder (S3-like) requests for training: balanced contention."""
    from repro.cluster.resources import POWER

    if POWER in system.names:
        jobs, _ = build_case_study_workload("S8", jobset, _without_power(system), seed=rng)
        return jobs
    return build_workload("S3", jobset, system, seed=rng)


def _without_power(system: SystemConfig) -> SystemConfig:
    from repro.cluster.resources import POWER

    return SystemConfig(tuple(r for r in system.resources if r.name != POWER))

