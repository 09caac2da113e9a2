"""The rigid-job model used throughout the library.

HPC jobs (unlike data-center tasks, §I of the paper) are *rigid*: they
request a fixed number of units of each schedulable resource and hold all
of them for their whole runtime. A job carries:

* static trace fields — submit time, actual runtime, user-supplied
  walltime estimate, and a per-resource request map in *units*
  (compute nodes, burst-buffer units, power units, ...),
* mutable simulation state — start/end times, reset between simulator
  runs so one job list can be replayed under many schedulers. Which
  units a running job holds is the pool's record, not the job's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

__all__ = ["Job"]


@dataclass
class Job:
    """A rigid parallel job.

    Parameters
    ----------
    job_id:
        Unique identifier within a trace.
    submit_time:
        Arrival time in seconds from trace start.
    runtime:
        Actual execution time in seconds (known to the simulator only;
        schedulers must use :attr:`walltime`).
    walltime:
        User-supplied runtime estimate in seconds; schedulers and the
        reservation machinery see only this value.
    requests:
        Mapping of resource name to requested units, e.g.
        ``{"node": 16, "burst_buffer": 4}``. Zero-valued entries are
        allowed and mean the job does not use that resource.
    """

    job_id: int
    submit_time: float
    runtime: float
    walltime: float
    requests: dict[str, int]
    # --- mutable simulation state -------------------------------------
    start_time: float | None = field(default=None, compare=False)
    end_time: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Chained compares also reject NaN: a NaN time would compare
        # False everywhere downstream (an end event that never comes, a
        # backfill shadow no job fits).
        if not 0 < self.runtime < inf:
            raise ValueError(f"job {self.job_id}: runtime must be positive and finite")
        if not -inf < self.walltime < inf:
            raise ValueError(f"job {self.job_id}: walltime must be finite")
        if self.walltime < self.runtime:
            # User estimates are upper bounds; clamp rather than reject so
            # noisy traces remain loadable.
            self.walltime = self.runtime
        if not 0 <= self.submit_time < inf:
            raise ValueError(f"job {self.job_id}: negative or non-finite submit time")
        for name, amount in self.requests.items():
            if amount < 0:
                raise ValueError(f"job {self.job_id}: negative request for {name}")

    # -- simulation lifecycle ------------------------------------------

    def reset(self) -> None:
        """Clear simulation state so the job can be replayed."""
        self.start_time = None
        self.end_time = None

    @property
    def started(self) -> bool:
        return self.start_time is not None

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    # -- metrics ---------------------------------------------------------

    @property
    def wait_time(self) -> float:
        """Seconds between submission and start (requires a started job)."""
        if self.start_time is None:
            raise RuntimeError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> float:
        """Wait time plus runtime (paper §IV-B metric 4 numerator)."""
        return self.wait_time + self.runtime

    @property
    def slowdown(self) -> float:
        """Response time over runtime — the paper's job slowdown."""
        return self.response_time / self.runtime

    def request(self, resource: str) -> int:
        """Units requested of ``resource`` (0 if absent from the map)."""
        return self.requests.get(resource, 0)

    def copy(self) -> "Job":
        """Deep-enough copy: fresh simulation state, shared statics."""
        return Job(
            job_id=self.job_id,
            submit_time=self.submit_time,
            runtime=self.runtime,
            walltime=self.walltime,
            requests=dict(self.requests),
        )
