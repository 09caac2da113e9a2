"""Paper workload suites: Table III (S1–S5) and the §V-E case study (S6–S10).

Table III derives five workloads from the production trace, spanning
light→heavy burst-buffer contention:

========  ======================  =============  ====================
Workload  Node requests           % jobs w/ BB   BB size range
========  ======================  =============  ====================
S1        as in trace             50%            [5 TB, 285 TB]
S2        as in trace             75%            [5 TB, 285 TB]
S3        as in trace             50%            [20 TB, 285 TB]
S4        as in trace             75%            [20 TB, 285 TB]
S5        half of trace           75%            [20 TB, 285 TB]
========  ======================  =============  ====================

Ranges are expressed here as *fractions of burst-buffer capacity*
(5/1290 … 285/1290 of Theta's 1.26 PB) so the same specs scale to the
miniature system the harness uses. Burst-buffer sizes are sampled from
the synthetic-Darshan empirical distribution truncated to the range,
mirroring the paper's "randomly selected from the original requests
within a certain range".

S6–S10 (case study) replicate S1–S5 and add a per-job power profile:
100–215 W per node (KNL 7230 TDP bounds), 60 W idle, 500 kW facility
budget — scaled by the same system fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import BURST_BUFFER, NODE, POWER, SystemConfig
from repro.utils.rng import as_generator
from repro.workload.darshan import generate_darshan_records
from repro.workload.job import Job

__all__ = [
    "WorkloadSpec",
    "WORKLOAD_SPECS",
    "CASE_STUDY_SPECS",
    "build_workload",
    "build_case_study_workload",
    "powered_system",
    "scaled_power_budget_units",
]

# Theta reference capacities the paper's absolute numbers refer to.
_THETA_BB_TB = 1290.0
_THETA_NODES = 4392
_THETA_POWER_BUDGET_W = 500_000.0

#: Watts represented by one power-resource unit.
POWER_UNIT_W = 100.0
#: Power-profile bounds per node (W): 100 W floor, KNL 7230 TDP 215 W.
POWER_PER_NODE_RANGE = (100.0, 215.0)
#: Idle node power draw (W), per Marincic et al. (PoLiMEr).
IDLE_NODE_POWER_W = 60.0


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table III row, capacity-relative.

    ``bb_lo_frac``/``bb_hi_frac`` bound the sampled burst-buffer request
    as a fraction of total BB capacity; ``node_scale`` multiplies the
    trace node counts (0.5 for S5); ``with_power`` marks case-study rows.
    """

    name: str
    bb_fraction: float
    bb_lo_frac: float
    bb_hi_frac: float
    node_scale: float = 1.0
    with_power: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.bb_fraction <= 1.0:
            raise ValueError("bb_fraction must be in [0, 1]")
        if not 0.0 < self.bb_lo_frac <= self.bb_hi_frac <= 1.0:
            raise ValueError("invalid bb range fractions")
        if self.node_scale <= 0:
            raise ValueError("node_scale must be positive")


def _spec(name: str, frac: float, lo_tb: float, hi_tb: float, node_scale: float = 1.0,
          power: bool = False) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        bb_fraction=frac,
        bb_lo_frac=lo_tb / _THETA_BB_TB,
        bb_hi_frac=hi_tb / _THETA_BB_TB,
        node_scale=node_scale,
        with_power=power,
    )


#: Table III, keyed by workload name.
WORKLOAD_SPECS: dict[str, WorkloadSpec] = {
    "S1": _spec("S1", 0.50, 5.0, 285.0),
    "S2": _spec("S2", 0.75, 5.0, 285.0),
    "S3": _spec("S3", 0.50, 20.0, 285.0),
    "S4": _spec("S4", 0.75, 20.0, 285.0),
    "S5": _spec("S5", 0.75, 20.0, 285.0, node_scale=0.5),
}

#: §V-E case study: same contention shapes plus power profiles.
CASE_STUDY_SPECS: dict[str, WorkloadSpec] = {
    f"S{i + 5}": _spec(f"S{i + 5}", s.bb_fraction, s.bb_lo_frac * _THETA_BB_TB,
                       s.bb_hi_frac * _THETA_BB_TB, s.node_scale, power=True)
    for i, s in ((1, WORKLOAD_SPECS["S1"]), (2, WORKLOAD_SPECS["S2"]),
                 (3, WORKLOAD_SPECS["S3"]), (4, WORKLOAD_SPECS["S4"]),
                 (5, WORKLOAD_SPECS["S5"]))
}


def _empirical_bb_pool(
    base_jobs: list[Job],
    lo_units: float,
    hi_units: float,
    bb_capacity: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical burst-buffer sizes (continuous units) within [lo, hi].

    Mirrors the paper: sizes come from the Darshan-derived request
    distribution, truncated to the spec's range. Sizes stay *continuous*
    here — discretisation to whole units happens at assignment time —
    because rounding first would collapse the S1–S5 distinctions on
    miniature systems. When the truncated empirical pool is too thin
    (tiny traces or aggressive truncation), a log-uniform fill — the
    smooth analogue of the truncated heavy tail — tops it up.
    """
    records = generate_darshan_records(base_jobs, seed=rng)
    scale = bb_capacity / _THETA_BB_TB
    sizes = np.array([r.bytes_moved_gb / 1024.0 * scale for r in records])
    pool = sizes[(sizes >= lo_units) & (sizes <= hi_units)]
    min_pool = max(32, len(base_jobs) // 8)
    if pool.size < min_pool:
        log_lo, log_hi = np.log(lo_units), np.log(max(hi_units, lo_units * (1 + 1e-9)))
        fill = np.exp(rng.uniform(log_lo, log_hi, size=min_pool - pool.size))
        pool = np.concatenate([pool, fill])
    return pool


def build_workload(
    spec: WorkloadSpec | str,
    base_jobs: list[Job],
    system: SystemConfig,
    seed: int | np.random.Generator | None = None,
) -> list[Job]:
    """Instantiate a Table III workload on ``system`` from a base trace.

    Returns fresh job copies; ``base_jobs`` is not mutated. Node counts
    are scaled by ``spec.node_scale`` (min 1) and clipped to capacity;
    the configured fraction of jobs receives a burst-buffer request
    sampled from the empirical range.

    A string ``spec`` is resolved through the workload registry
    (:data:`repro.api.registry.WORKLOADS`), so workloads registered via
    ``@register_workload`` — not just the paper's S1–S10 — build here.
    """
    if isinstance(spec, str):
        from repro.api.registry import WORKLOADS

        return WORKLOADS.get(spec).build(base_jobs, system, seed)
    rng = as_generator(seed)
    node_cap = system.capacity(NODE)
    bb_cap = system.capacity(BURST_BUFFER)
    lo_units = spec.bb_lo_frac * bb_cap
    hi_units = max(lo_units, spec.bb_hi_frac * bb_cap)
    pool = _empirical_bb_pool(base_jobs, lo_units, hi_units, bb_cap, rng)

    jobs: list[Job] = []
    for job in base_jobs:
        new = job.copy()
        nodes = max(1, int(round(job.request(NODE) * spec.node_scale)))
        new.requests[NODE] = min(nodes, node_cap)
        if rng.random() < spec.bb_fraction:
            # The stream ``rng.choice(pool)`` draws, without its overhead.
            units = int(np.ceil(pool[rng.integers(0, pool.size)]))
            new.requests[BURST_BUFFER] = min(max(1, units), bb_cap)
        else:
            new.requests[BURST_BUFFER] = 0
        jobs.append(new)

    if spec.with_power:
        jobs = _attach_power_profiles(jobs, system, rng)
    return jobs


def scaled_power_budget_units(system: SystemConfig) -> int:
    """Facility power budget in units, scaled by node-count fraction.

    The paper fixes 500 kW for 4,392 nodes; a miniature system gets the
    proportional budget so contention fierceness is preserved.
    """
    frac = system.capacity(NODE) / _THETA_NODES
    budget_w = _THETA_POWER_BUDGET_W * frac
    return max(1, int(round(budget_w / POWER_UNIT_W)))


def _attach_power_profiles(
    jobs: list[Job], system: SystemConfig, rng: np.random.Generator
) -> list[Job]:
    """Assign per-job power requests: Uniform(100, 215) W per node.

    A job whose profile would exceed the whole facility budget is
    power-capped at the budget — the dynamic power-capping treatment of
    Sharma et al. that the paper cites — since it could otherwise never
    be scheduled at all.
    """
    lo, hi = POWER_PER_NODE_RANGE
    budget = system.capacity(POWER) if POWER in system.names else None
    for job in jobs:
        per_node_w = rng.uniform(lo, hi)
        total_w = per_node_w * job.request(NODE)
        units = max(1, int(np.ceil(total_w / POWER_UNIT_W)))
        if budget is not None:
            units = min(units, budget)
        job.requests[POWER] = units
    return jobs


def powered_system(system: SystemConfig) -> SystemConfig:
    """The §V-E evaluation system: ``system`` plus the scaled power budget."""
    return system.with_power(scaled_power_budget_units(system))


def build_case_study_workload(
    spec: WorkloadSpec | str,
    base_jobs: list[Job],
    system: SystemConfig,
    seed: int | np.random.Generator | None = None,
) -> tuple[list[Job], SystemConfig]:
    """Build a case-study workload and the matching power-extended system.

    Returns ``(jobs, system_with_power)``; the power budget is scaled
    per :func:`scaled_power_budget_units`. String names resolve through
    the workload registry and must be registered as case-study
    (``with_power``/power-profiled) workloads.
    """
    powered = powered_system(system)
    if isinstance(spec, str):
        from repro.api.registry import WORKLOADS

        entry = WORKLOADS.get(spec)
        if not entry.case_study:
            raise ValueError(f"{entry.name} is not a case-study (power) workload")
        return entry.build(base_jobs, powered, seed), powered
    if not spec.with_power:
        raise ValueError(f"{spec.name} is not a case-study (power) workload")
    return build_workload(spec, base_jobs, powered, seed=seed), powered
