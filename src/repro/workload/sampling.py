"""Curriculum job sets for the §III-D training strategy.

The paper trains with three kinds of job sets, in a gradual-improvement
order (Fig. 4 shows sampled → real → synthetic converging fastest):

* **sampled** — jobs drawn from the training trace with *controlled*
  Poisson arrivals at the trace's mean inter-arrival time (the easiest
  environment),
* **real** — contiguous slices of the training trace with the original
  bursty arrivals,
* **synthetic** — generator output mimicking the trace's hourly/daily
  arrival patterns and request/runtime distributions (unseen states).

:func:`split_trace` also implements the paper's train/validate/test
split (first 3.5 months / 2 weeks / remainder, expressed as fractions).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator, spawn_generators
from repro.workload.job import Job
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

__all__ = ["split_trace", "poisson_resample", "synthetic_jobsets", "real_jobsets", "build_curriculum"]


def split_trace(
    jobs: list[Job],
    train_frac: float = 0.70,
    validate_frac: float = 0.10,
) -> tuple[list[Job], list[Job], list[Job]]:
    """Chronological train/validate/test split by submit time.

    The paper uses 3.5 months / 2 weeks / ~1 month of a 5-month trace,
    i.e. roughly 70% / 10% / 20%; fractions are configurable. Each part
    is re-based so its first submit time is 0, and jobs are fresh copies.
    """
    if train_frac < 0 or validate_frac < 0 or train_frac + validate_frac > 1.0:
        raise ValueError("invalid split fractions")
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    n = len(ordered)
    n_train = int(n * train_frac)
    n_val = int(n * validate_frac)
    parts = (ordered[:n_train], ordered[n_train : n_train + n_val], ordered[n_train + n_val :])
    return tuple(_rebase(p) for p in parts)  # type: ignore[return-value]


def _rebase(jobs: list[Job]) -> list[Job]:
    if not jobs:
        return []
    t0 = min(j.submit_time for j in jobs)
    out = []
    for job in jobs:
        new = job.copy()
        new.submit_time = job.submit_time - t0
        out.append(new)
    return out


def mean_interarrival(jobs: list[Job]) -> float:
    """Average gap between consecutive submissions (seconds)."""
    if len(jobs) < 2:
        return 600.0
    times = np.sort([j.submit_time for j in jobs])
    span = float(times[-1] - times[0])
    return max(span / (len(jobs) - 1), 1.0)


def poisson_resample(
    jobs: list[Job],
    n_jobs: int,
    seed: int | np.random.Generator | None = None,
    interarrival: float | None = None,
) -> list[Job]:
    """Sample ``n_jobs`` jobs (with replacement) and give them Poisson
    arrivals at the trace's mean inter-arrival time (§V-B)."""
    if not jobs:
        raise ValueError("cannot resample an empty trace")
    rng = as_generator(seed)
    interarrival = interarrival or mean_interarrival(jobs)
    picks = rng.integers(0, len(jobs), size=n_jobs)
    arrivals = np.cumsum(rng.exponential(interarrival, size=n_jobs))
    out = []
    for i, pick in enumerate(picks):
        new = jobs[pick].copy()
        new.job_id = i + 1
        new.submit_time = float(arrivals[i])
        out.append(new)
    return out


def real_jobsets(jobs: list[Job], n_sets: int) -> list[list[Job]]:
    """Cut the training trace into ``n_sets`` contiguous, re-based slices."""
    if n_sets <= 0:
        raise ValueError("n_sets must be positive")
    size = max(1, len(jobs) // n_sets)
    sets = []
    for i in range(n_sets):
        chunk = jobs[i * size : (i + 1) * size] if i < n_sets - 1 else jobs[(n_sets - 1) * size :]
        if chunk:
            sets.append(_rebase(chunk))
    return sets


def synthetic_jobsets(
    template: ThetaTraceConfig,
    n_sets: int,
    jobs_per_set: int,
    seed: int | np.random.Generator | None = None,
) -> list[list[Job]]:
    """Generate ``n_sets`` synthetic job sets from the trace-shaped
    generator (independent child RNG streams per set)."""
    rngs = spawn_generators(seed, n_sets)
    cfg = ThetaTraceConfig(**{**template.__dict__, "n_jobs": jobs_per_set,
                              "hourly_profile": template.hourly_profile.copy()})
    return [generate_theta_trace(cfg, seed=rng) for rng in rngs]


def build_curriculum(
    train_jobs: list[Job],
    template: ThetaTraceConfig,
    n_sampled: int = 10,
    n_real: int = 10,
    n_synthetic: int = 20,
    jobs_per_set: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> dict[str, list[list[Job]]]:
    """Build the paper's three-phase training curriculum (§III-D).

    Defaults follow §V-B: 10 sampled + 10 real + 20 synthetic job sets.
    Returns ``{"sampled": [...], "real": [...], "synthetic": [...]}``;
    pass the phases to the trainer in whichever order is under study
    (Fig. 4 compares all six orderings). A count of zero leaves that
    phase empty.
    """
    rng = as_generator(seed)
    per_set = jobs_per_set or max(1, len(train_jobs) // max(n_real, 1))
    sampled = [
        poisson_resample(train_jobs, per_set, seed=rng) for _ in range(n_sampled)
    ]
    real = real_jobsets(train_jobs, n_real) if n_real else []
    synthetic = synthetic_jobsets(template, n_synthetic, per_set, seed=rng)
    return {"sampled": sampled, "real": real, "synthetic": synthetic}
