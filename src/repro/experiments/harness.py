"""Shared experiment machinery.

One :class:`ExperimentConfig` fixes the system scale, trace size,
training budget and RNG seed of an experiment; the harness then builds
the base trace, instantiates any method by paper name and trains the
trainable ones on the §III-D curriculum;
:func:`repro.exp.tasks.replay_cell` puts these steps together and
replays the evaluation workloads.

Scale note: defaults target the miniature Theta (DESIGN.md §5) so that a
full (4 methods × 5 workloads) grid runs in minutes on a laptop. All the
knobs — node/BB counts, job counts, GA budget, training episodes — are
explicit, so the same harness drives full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.api.knobs import check_knobs
from repro.api.registry import SCHEDULERS
from repro.cluster.resources import SystemConfig
from repro.sched.base import Scheduler
from repro.sched.ga import NSGA2Config
from repro.utils.rng import as_generator, spawn_generators
from repro.workload.job import Job
from repro.workload.sampling import build_curriculum
from repro.workload.suites import build_case_study_workload, build_workload
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

if TYPE_CHECKING:
    from repro.core.training import TrainingResult

__all__ = ["ExperimentConfig", "prepare_base_trace", "train_method"]


@dataclass
class ExperimentConfig:
    """Sizing and seeding of one experiment.

    Fields are validated at construction against their
    :data:`repro.api.knobs.KNOBS` rows — an impossible sizing fails
    immediately with a named-field :class:`ValueError` instead of a
    downstream crash deep inside trace generation or training.
    """

    nodes: int = 128
    bb_units: int = 64
    n_jobs: int = 150
    window_size: int = 10
    seed: int = 2022
    #: training curriculum sizing (per phase: sampled / real / synthetic)
    curriculum_sets: tuple[int, int, int] = (3, 3, 3)
    jobs_per_trainset: int = 80
    #: GA budget (kept small: the GA is the slowest method per decision)
    ga_config: NSGA2Config = field(default_factory=lambda: NSGA2Config(population=12, generations=6))
    mean_interarrival: float = 600.0
    #: system factory to instantiate (see ``repro.api.registry.SYSTEMS``);
    #: the factory receives this config's ``nodes``/``bb_units`` sizing
    system_name: str = "mini_theta"

    def __post_init__(self) -> None:
        check_knobs("ExperimentConfig", vars(self))

    def system(self) -> SystemConfig:
        from repro.api.registry import SYSTEMS
        from repro.cluster.resources import BURST_BUFFER, NODE

        system = SYSTEMS.get(self.system_name).build(
            nodes=self.nodes, bb_units=self.bb_units
        )
        # A factory that fixes its own scale (e.g. "theta") may ignore
        # the sizing arguments; trace generation uses `nodes` regardless,
        # so a mismatch silently produces a near-idle or oversubscribed
        # machine. Fail loudly with the value to set instead.
        for resource, configured in ((NODE, self.nodes), (BURST_BUFFER, self.bb_units)):
            if resource in system.names and system.capacity(resource) != configured:
                raise ValueError(
                    f"system {self.system_name!r} has {system.capacity(resource)} "
                    f"{resource} units but the experiment is sized for "
                    f"{configured}; set ExperimentConfig/"
                    f"scenario sizing to match the system"
                )
        return system

    def trace_config(self, n_jobs: int | None = None) -> ThetaTraceConfig:
        return ThetaTraceConfig(
            total_nodes=self.nodes,
            n_jobs=self.n_jobs if n_jobs is None else n_jobs,
            mean_interarrival=self.mean_interarrival,
        )


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

