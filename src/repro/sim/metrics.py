"""Scheduling-quality metrics (paper §IV-B).

System-level metrics:

1. **Node utilization** — used node-hours during useful job execution
   over elapsed node-hours.
2. **Burst-buffer utilization** — used burst-buffer-hours over elapsed
   burst-buffer-hours.

User-level metrics:

3. **Average job wait time** — submission → start interval.
4. **Average job slowdown** — response time (wait + runtime) over
   runtime.

The §V-E case study adds **average system power** (mean power draw of
running jobs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.resources import BURST_BUFFER, NODE, POWER, SystemConfig
from repro.workload.job import Job

__all__ = ["MetricReport", "compute_metrics"]


@dataclass
class MetricReport:
    """Aggregate metrics for one (scheduler, workload) run.

    ``utilization`` maps every resource to its job-based utilization;
    ``node_util``/``bb_util`` are convenience views of the two the paper
    plots. Times are in seconds; the report helpers convert to hours.
    """

    utilization: dict[str, float]
    avg_wait: float
    avg_slowdown: float
    max_wait: float
    p95_slowdown: float
    makespan: float
    n_jobs: int
    avg_power_units: float = 0.0

    node_util: float = field(init=False)
    bb_util: float = field(init=False)

    def __post_init__(self) -> None:
        self.node_util = self.utilization.get(NODE, 0.0)
        self.bb_util = self.utilization.get(BURST_BUFFER, 0.0)

    @property
    def avg_wait_hours(self) -> float:
        return self.avg_wait / 3600.0

    def full_dict(self) -> dict:
        """Every field, JSON-serialisable — the cache/checkpoint format.

        Unlike :meth:`as_dict` (the four plotted columns), this loses no
        information: :meth:`from_dict` reconstructs an identical report.
        """
        return {
            "utilization": dict(self.utilization),
            "avg_wait": self.avg_wait,
            "avg_slowdown": self.avg_slowdown,
            "max_wait": self.max_wait,
            "p95_slowdown": self.p95_slowdown,
            "makespan": self.makespan,
            "n_jobs": self.n_jobs,
            "avg_power_units": self.avg_power_units,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        """Inverse of :meth:`full_dict`."""
        return cls(
            utilization={str(k): float(v) for k, v in data["utilization"].items()},
            avg_wait=float(data["avg_wait"]),
            avg_slowdown=float(data["avg_slowdown"]),
            max_wait=float(data["max_wait"]),
            p95_slowdown=float(data["p95_slowdown"]),
            makespan=float(data["makespan"]),
            n_jobs=int(data["n_jobs"]),
            avg_power_units=float(data.get("avg_power_units", 0.0)),
        )

    def as_dict(self) -> dict[str, float]:
        out = {
            "node_util": self.node_util,
            "bb_util": self.bb_util,
            "avg_wait_h": self.avg_wait_hours,
            "avg_slowdown": self.avg_slowdown,
        }
        if self.avg_power_units:
            out["avg_power_units"] = self.avg_power_units
        return out


def compute_metrics(jobs: list[Job], system: SystemConfig) -> MetricReport:
    """Compute the §IV-B metrics over a finished job list."""
    finished = [j for j in jobs if j.finished]
    if not finished:
        return MetricReport(
            utilization={name: 0.0 for name in system.names},
            avg_wait=0.0,
            avg_slowdown=0.0,
            max_wait=0.0,
            p95_slowdown=0.0,
            makespan=0.0,
            n_jobs=0,
        )
    t0 = min(j.submit_time for j in finished)
    t_end = max(j.end_time for j in finished)  # type: ignore[type-var]
    span = max(t_end - t0, 1e-9)

    utilization: dict[str, float] = {}
    for name in system.names:
        used = sum(j.request(name) * j.runtime for j in finished)
        utilization[name] = used / (system.capacity(name) * span)

    waits = np.array([j.wait_time for j in finished])
    slowdowns = np.array([j.slowdown for j in finished])

    avg_power = 0.0
    if POWER in system.names:
        # Mean power draw of running jobs over the whole span, in units.
        avg_power = sum(j.request(POWER) * j.runtime for j in finished) / span

    return MetricReport(
        utilization=utilization,
        avg_wait=float(waits.mean()),
        avg_slowdown=float(slowdowns.mean()),
        max_wait=float(waits.max()),
        p95_slowdown=_p95(slowdowns),
        makespan=span,
        n_jobs=len(finished),
        avg_power_units=avg_power,
    )


def _p95(x: np.ndarray) -> float:
    """``np.percentile(x, 95)`` bit for bit, without the ``numpy.ma``
    import it makes on first use: the same partition, the same virtual
    index and numpy's two-sided ``_lerp``."""
    n = len(x)
    index = (n - 1) * 0.95
    lo = math.floor(index)
    hi = lo + 1
    if index >= n - 1:  # n == 1: both neighbours are the last element
        lo = hi = -1
    part = np.partition(x, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = part[lo], part[hi], index - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
