"""The sizing and seeding of one experiment, without NumPy.

A scenario compiles to :class:`~repro.exp.records.ExperimentTask` cells
that each carry an :class:`ExperimentConfig`; compiling, hashing and
queueing them imports no NumPy. What a cell runs with the config — the
base trace, the method, training — is :mod:`repro.experiments.harness`,
which re-exports the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.api.knobs import check_knobs
from repro.sched.ga_config import NSGA2Config

if TYPE_CHECKING:
    from repro.cluster.system import SystemConfig
    from repro.workload.theta import ThetaTraceConfig

__all__ = ["ExperimentConfig"]


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
        from repro.cluster.system import BURST_BUFFER, NODE

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
        # The trace generator is execution layer: only a cell asks.
        from repro.workload.theta import ThetaTraceConfig

        return ThetaTraceConfig(
            total_nodes=self.nodes,
            n_jobs=self.n_jobs if n_jobs is None else n_jobs,
            mean_interarrival=self.mean_interarrival,
        )
