"""Synthetic Darshan I/O records and burst-buffer request extraction.

The paper (§IV-A) derives each job's burst-buffer request from its
Darshan I/O log: the bytes moved between compute nodes and the parallel
file system become the job's potential burst-buffer demand. Reported
statistics for the five-month Theta trace:

* 40% of jobs have Darshan records,
* 17.18% of jobs move more than 1 GB,
* transferred volumes range from 1 GB to 285 TB.

Real Darshan logs are not redistributable, so
:func:`generate_darshan_records` samples a heavy-tailed (lognormal)
volume distribution calibrated to those quantiles, and
:func:`extract_bb_requests` performs the same record→request extraction
the paper applies to real logs. The two halves are deliberately separate
so a user with real Darshan data can feed it straight into the second
stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.workload.job import Job

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    _normal_dist_inv_cdf = None

__all__ = ["DarshanRecord", "generate_darshan_records", "extract_bb_requests"]

_GB = 1.0
_TB = 1024.0


def _normal_quantile(p: float) -> float:
    """``statistics.NormalDist().inv_cdf(p)``, bit for bit, for ``0 < p < 1``.

    It calls the kernel ``inv_cdf`` itself calls, from CPython's C
    accelerator ``_statistics``: importing :mod:`statistics` would
    compile it and load :mod:`decimal` and :mod:`fractions` (~2.5 ms)
    in every process that builds a trace.
    """
    if _normal_dist_inv_cdf is None:  # an interpreter without the accelerator
        from statistics import NormalDist

        return NormalDist().inv_cdf(p)
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


@dataclass(frozen=True)
class DarshanRecord:
    """Aggregate I/O volume for one job, in GB moved to/from the PFS."""

    job_id: int
    bytes_moved_gb: float

    def __post_init__(self) -> None:
        if self.bytes_moved_gb < 0:
            raise ValueError("bytes_moved_gb must be non-negative")


def generate_darshan_records(
    jobs: list[Job],
    p_has_record: float = 0.40,
    p_over_1gb: float = 0.1718,
    max_volume_gb: float = 285.0 * _TB,
    volume_log_sigma: float = 3.0,
    io_scales_with_nodes: bool = True,
    seed: int | np.random.Generator | None = None,
) -> list[DarshanRecord]:
    """Sample synthetic Darshan records matching the paper's statistics.

    A fraction ``p_has_record`` of jobs get a record. Volumes are drawn
    from a lognormal whose median is placed so that the overall fraction
    of jobs exceeding 1 GB equals ``p_over_1gb``. When
    ``io_scales_with_nodes`` is set, volume is additionally scaled by the
    job's node count relative to the trace mean (bigger jobs move more
    data), preserving the global quantile approximately.
    """
    if not 0.0 <= p_has_record <= 1.0:
        raise ValueError("p_has_record must be in [0, 1]")
    if not 0.0 <= p_over_1gb <= p_has_record:
        raise ValueError("p_over_1gb cannot exceed p_has_record")
    rng = as_generator(seed)
    if not jobs:
        return []

    # Choose lognormal median so P(record) * P(V > 1 GB | record) = p_over_1gb.
    # With V = exp(mu + sigma * Z): P(V > 1) = Phi(mu / sigma).
    conditional = p_over_1gb / p_has_record if p_has_record > 0 else 0.0
    if 0.0 < conditional < 1.0:
        quantile = _normal_quantile(conditional)
    else:  # inv_cdf raises at the ends; the limits are what is meant
        quantile = -math.inf if conditional <= 0.0 else math.inf
    mu = volume_log_sigma * quantile  # log-GB

    mean_nodes = float(np.mean([max(1, j.request("node")) for j in jobs]))
    records: list[DarshanRecord] = []
    for job in jobs:
        if rng.random() >= p_has_record:
            continue
        volume = float(np.exp(mu + volume_log_sigma * rng.standard_normal()))
        if io_scales_with_nodes:
            volume *= max(1, job.request("node")) / mean_nodes
        volume = min(volume, max_volume_gb)
        records.append(DarshanRecord(job_id=job.job_id, bytes_moved_gb=volume))
    return records


def extract_bb_requests(
    jobs: list[Job],
    records: list[DarshanRecord],
    bb_unit_gb: float = _TB,
    bb_resource: str = "burst_buffer",
    max_units: int | None = None,
    min_volume_gb: float = 1.0,
) -> list[Job]:
    """Assign burst-buffer requests from Darshan records (paper §IV-A).

    Each job with a record moving at least ``min_volume_gb`` gets a
    burst-buffer request of ``ceil(volume / bb_unit_gb)`` units, capped
    at ``max_units`` (the shared buffer capacity). Jobs are returned as
    fresh copies; inputs are not mutated.
    """
    if bb_unit_gb <= 0:
        raise ValueError("bb_unit_gb must be positive")
    by_id = {r.job_id: r for r in records}
    out: list[Job] = []
    for job in jobs:
        new = job.copy()
        record = by_id.get(job.job_id)
        if record is not None and record.bytes_moved_gb >= min_volume_gb:
            units = int(np.ceil(record.bytes_moved_gb / bb_unit_gb))
            if max_units is not None:
                units = min(units, max_units)
            new.requests[bb_resource] = units
        else:
            new.requests.setdefault(bb_resource, 0)
        out.append(new)
    return out
