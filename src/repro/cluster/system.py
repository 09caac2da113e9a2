"""Resource specs and system configurations, without NumPy.

A :class:`SystemConfig` is what a scenario names and validates against
(its resource names and unit counts); compiling, listing and inspecting
a study read it, and none of them needs NumPy. The allocation pool that
replays a trace on it lives in :mod:`repro.cluster.resources`, which
re-exports every name here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.workload.job import Job

__all__ = ["ResourceSpec", "SystemConfig", "NODE", "BURST_BUFFER", "POWER"]

#: Canonical resource names used by the paper's experiments.
NODE = "node"
BURST_BUFFER = "burst_buffer"
POWER = "power"


@dataclass(frozen=True)
class ResourceSpec:
    """One schedulable resource: a name and a unit count.

    ``unit_label`` documents what a unit physically is (a node, a TB of
    burst buffer, a kW of power budget).
    """

    name: str
    units: int
    unit_label: str = "unit"

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise ValueError(f"resource {self.name!r} must have positive units")
        if not self.name:
            raise ValueError("resource name must be non-empty")


@dataclass(frozen=True)
class SystemConfig:
    """An ordered collection of resource specs describing one system."""

    resources: tuple[ResourceSpec, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.resources]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate resource names: {names}")
        if not self.resources:
            raise ValueError("a system needs at least one resource")

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.resources]

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    @cached_property
    def capacities(self) -> np.ndarray:
        """Unit counts in config order as one read-only float vector,
        built once per config (the divisor of every normalised request).
        Only a run reads it, so NumPy is imported here, not at the top."""
        import numpy as np

        caps = np.array([spec.units for spec in self.resources], dtype=float)
        caps.flags.writeable = False
        return caps

    def capacity(self, name: str) -> int:
        for spec in self.resources:
            if spec.name == name:
                return spec.units
        raise KeyError(f"unknown resource {name!r}")

    def validate_job(self, job: Job) -> None:
        """Reject jobs that request unknown resources or exceed capacity."""
        names = self.names
        for name, amount in job.requests.items():
            if amount == 0:
                continue
            if name not in names:
                raise ValueError(f"job {job.job_id} requests unknown resource {name!r}")
            if amount > self.capacity(name):
                raise ValueError(
                    f"job {job.job_id} requests {amount} {name} units, "
                    f"capacity is {self.capacity(name)}"
                )

    # -- canonical configurations ---------------------------------------

    @classmethod
    def theta(cls) -> "SystemConfig":
        """Full-scale Theta: 4,392 KNL nodes + 1.26 PB shared burst buffer
        in 1 TB units (paper §IV-A)."""
        return cls(
            resources=(
                ResourceSpec(NODE, 4392, "KNL node"),
                ResourceSpec(BURST_BUFFER, 1290, "TB of burst buffer"),
            )
        )

    @classmethod
    def mini_theta(cls, nodes: int = 128, bb_units: int = 64) -> "SystemConfig":
        """Proportional miniature of Theta for fast simulation.

        Contention *ratios* — not absolute unit counts — drive every
        result in the paper, so the experiment harness defaults to this
        configuration.
        """
        return cls(
            resources=(
                ResourceSpec(NODE, nodes, "node"),
                ResourceSpec(BURST_BUFFER, bb_units, "TB of burst buffer"),
            )
        )

    def with_power(self, power_units: int) -> "SystemConfig":
        """Extend this system with a power-budget resource (§V-E).

        A power unit is one kW of the facility budget; the paper caps the
        system at 500 kW.
        """
        return SystemConfig(
            resources=self.resources + (ResourceSpec(POWER, power_units, "kW of power budget"),)
        )
