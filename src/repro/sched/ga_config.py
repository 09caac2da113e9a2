"""The GA's hyper-parameters, apart from the GA itself.

Every :class:`~repro.experiments.config.ExperimentConfig` carries an
:class:`NSGA2Config`, so building a config — which every run does —
reads this module and not the optimizer body in :mod:`repro.sched.ga`,
which only a cell that runs the GA imports.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NSGA2Config"]


@dataclass(frozen=True)
class NSGA2Config:
    """GA hyper-parameters; defaults sized for windows of ~10 jobs."""

    population: int = 24
    generations: int = 15
    p_crossover: float = 0.9
    p_mutation: float = 0.2

    def __post_init__(self) -> None:
        if self.population < 2 or self.generations < 1:
            raise ValueError("population >= 2 and generations >= 1 required")
        if not (0 <= self.p_crossover <= 1 and 0 <= self.p_mutation <= 1):
            raise ValueError("probabilities must be in [0, 1]")
