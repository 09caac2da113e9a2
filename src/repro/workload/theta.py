"""Statistical Theta-like trace generation.

The paper evaluates on a five-month 2018 production trace from Theta
(ALCF): 4,392 Intel KNL nodes, capability-class workload. That trace is
not redistributable, so this module generates traces with the same
*statistical shape*, which is what drives scheduler behaviour:

* **Arrivals** — Poisson process modulated by a diurnal profile (daytime
  submission peaks) and a weekday/weekend factor, matching the paper's
  "hourly and daily job arrival" synthetic-set description (§V-B).
* **Node counts** — mixture of power-of-two requests (dominant on
  capability systems), small debug jobs and rare near-full-machine runs.
* **Runtimes** — lognormal body with a heavy tail, clipped to a maximum
  walltime; seconds to days, as §III-C stresses.
* **Walltime estimates** — runtime inflated by a user overestimate
  factor (Mu'alem & Feitelson observe large, discretised overestimates);
  a fraction of users request round wall-clock limits.

Every knob sits on :class:`ThetaTraceConfig`, so scaled-down systems
(see ``SystemConfig.mini_theta``) can generate proportional workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import as_generator
from repro.workload.job import Job

__all__ = ["ThetaTraceConfig", "generate_theta_trace"]

_HOURLY_PROFILE = np.array(
    # Relative submission intensity per hour-of-day, peaking in working hours.
    [0.5, 0.4, 0.35, 0.3, 0.3, 0.35, 0.5, 0.7, 1.0, 1.3, 1.5, 1.6,
     1.5, 1.5, 1.6, 1.5, 1.4, 1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.55]
)


@dataclass
class ThetaTraceConfig:
    """Knobs for the Theta-like generator.

    Defaults describe the miniature system used by the experiment
    harness; set ``total_nodes=4392`` for full-scale Theta.
    """

    total_nodes: int = 128
    n_jobs: int = 1000
    mean_interarrival: float = 600.0  # seconds
    #: lognormal parameters of runtime in seconds
    runtime_log_mean: float = 8.0  # exp(8) ≈ 50 min median
    runtime_log_sigma: float = 1.4
    min_runtime: float = 60.0
    max_runtime: float = 86400.0 * 2  # 2-day walltime cap
    #: probability a job requests a power-of-two node count
    p_power_of_two: float = 0.6
    #: probability of a near-full-machine capability run
    p_capability: float = 0.03
    #: mean of the geometric small-job tail (in nodes)
    small_job_mean: float = 4.0
    #: walltime overestimate: walltime = runtime * Uniform(1, max_overestimate)
    max_overestimate: float = 4.0
    #: fraction of users who round walltime up to the next hour
    p_round_walltime: float = 0.5
    diurnal: bool = True
    weekend_factor: float = 0.6
    node_resource: str = "node"
    hourly_profile: np.ndarray = field(default_factory=lambda: _HOURLY_PROFILE.copy())

    def __post_init__(self) -> None:
        if self.total_nodes <= 0:
            raise ValueError("total_nodes must be positive")
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be non-negative")
        if not 0 < self.mean_interarrival < math.inf:
            raise ValueError("mean_interarrival must be positive and finite")
        if self.min_runtime <= 0 or self.max_runtime < self.min_runtime:
            raise ValueError("invalid runtime bounds")
        if not 0 <= self.weekend_factor < math.inf:
            raise ValueError("weekend_factor must be non-negative and finite")
        profile = np.asarray(self.hourly_profile, dtype=float)
        if profile.shape != (24,):
            raise ValueError("hourly_profile must have 24 entries")
        if not np.isfinite(profile).all() or (profile < 0).any() or profile.sum() <= 0:
            raise ValueError(
                "hourly_profile must be finite, non-negative and not all zero"
            )


def _sample_arrivals(cfg: ThetaTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Thinned-Poisson arrivals with diurnal/weekly modulation."""
    if cfg.n_jobs == 0:
        return np.zeros(0)
    if not cfg.diurnal:
        gaps = rng.exponential(cfg.mean_interarrival, size=cfg.n_jobs)
        return np.cumsum(gaps)
    profile = np.asarray(cfg.hourly_profile, dtype=float)
    profile = (profile / profile.mean()).tolist()
    # The thinning bound covers the weekend rate too when it is the
    # higher one; a weekday-peak bound would cap it there.
    bound = max(profile) * max(1, cfg.weekend_factor)
    arrivals = np.empty(cfg.n_jobs)
    t = 0.0
    lam_max = bound / cfg.mean_interarrival
    count = 0
    while count < cfg.n_jobs:
        t += rng.exponential(1.0 / lam_max)
        hour = int(t // 3600) % 24
        day = int(t // 86400) % 7
        intensity = profile[hour] * (cfg.weekend_factor if day >= 5 else 1.0)
        if rng.random() < intensity / bound:
            arrivals[count] = t
            count += 1
    return arrivals


def _sample_nodes(cfg: ThetaTraceConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixture node-count distribution capped at the machine size."""
    max_pow = int(np.log2(cfg.total_nodes)) if cfg.total_nodes > 1 else 0
    nodes = np.empty(n, dtype=np.int64)
    kind = rng.random(n)
    for i in range(n):
        if kind[i] < cfg.p_capability:
            # Capability run: 50-100% of the machine.
            nodes[i] = rng.integers(cfg.total_nodes // 2, cfg.total_nodes + 1)
        elif kind[i] < cfg.p_capability + cfg.p_power_of_two:
            # Power-of-two request, biased toward mid sizes.
            exponent = rng.binomial(max_pow, 0.45)
            nodes[i] = 2**exponent
        else:
            # Small geometric tail (debug / single-node work).
            nodes[i] = min(cfg.total_nodes, 1 + rng.geometric(1.0 / cfg.small_job_mean))
    return np.clip(nodes, 1, cfg.total_nodes)


def _sample_runtimes(cfg: ThetaTraceConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    runtimes = rng.lognormal(cfg.runtime_log_mean, cfg.runtime_log_sigma, size=n)
    return np.clip(runtimes, cfg.min_runtime, cfg.max_runtime)


def _sample_walltimes(
    cfg: ThetaTraceConfig, rng: np.random.Generator, runtimes: np.ndarray
) -> np.ndarray:
    factor = rng.uniform(1.0, cfg.max_overestimate, size=runtimes.size)
    walltimes = runtimes * factor
    round_mask = rng.random(runtimes.size) < cfg.p_round_walltime
    walltimes[round_mask] = np.ceil(walltimes[round_mask] / 3600.0) * 3600.0
    return np.maximum(walltimes, runtimes)


def generate_theta_trace(
    cfg: ThetaTraceConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> list[Job]:
    """Generate a Theta-like job trace.

    Returns jobs sorted by submit time with sequential ids starting at 1.
    Only the node resource is populated; burst-buffer / power requests
    are layered on by :mod:`repro.workload.darshan` and
    :mod:`repro.workload.suites`.
    """
    cfg = cfg or ThetaTraceConfig()
    rng = as_generator(seed)
    arrivals = _sample_arrivals(cfg, rng)
    nodes = _sample_nodes(cfg, rng, cfg.n_jobs)
    runtimes = _sample_runtimes(cfg, rng, cfg.n_jobs)
    walltimes = _sample_walltimes(cfg, rng, runtimes)
    return [
        Job(
            job_id=i + 1,
            submit_time=float(arrivals[i]),
            runtime=float(runtimes[i]),
            walltime=float(walltimes[i]),
            requests={cfg.node_resource: int(nodes[i])},
        )
        for i in range(cfg.n_jobs)
    ]
