"""Timeline recording of utilization samples.

The comparison figures need more than end-of-run aggregates. The
recorder stores step-function samples — values are constant between
simulation events, so time-weighted integrals are exact. (The goal
vector's timeline, Figs. 8/9, is the scheduler's own:
:meth:`repro.core.mrsch.MRSchScheduler.goal_series`.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["TimelineRecorder"]


class TimelineRecorder:
    """Collects (time, vector) utilization samples.

    ``n_resources`` fixes the value width up front so an empty series
    keeps its resource dimension — a recorder that saw no samples yet
    still answers ``(T=0, n_resources)``-shaped values, which is what
    plotting and metric consumers expect. When omitted, the width is
    inferred from the first recorded sample (and an empty series falls
    back to width 0, the historical behaviour).
    """

    def __init__(self, n_resources: int | None = None) -> None:
        self.n_resources = n_resources
        self._util_times: list[float] = []
        self._util_values: list[np.ndarray] = []

    # -- recording ---------------------------------------------------------

    def record_utilization(self, time: float, utilization: np.ndarray) -> None:
        value = np.asarray(utilization, dtype=float).copy()
        if self.n_resources is None:
            self.n_resources = value.shape[-1]
        self._util_times.append(time)
        self._util_values.append(value)

    # -- retrieval ---------------------------------------------------------

    @property
    def utilization_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays; values has shape (T, n_resources)."""
        if not self._util_times:
            return np.zeros(0), np.zeros((0, self.n_resources or 0))
        return np.asarray(self._util_times), np.vstack(self._util_values)

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the recorded samples (for episode snapshot/restore)."""
        return {
            "n_resources": self.n_resources,
            "util_times": list(self._util_times),
            "util_values": [v.copy() for v in self._util_values],
        }

    def restore(self, snap: dict) -> None:
        """Restore samples captured by :meth:`snapshot`."""
        self.n_resources = snap["n_resources"]
        self._util_times = list(snap["util_times"])
        self._util_values = [v.copy() for v in snap["util_values"]]

    def time_weighted_mean_utilization(self) -> np.ndarray:
        """Exact time-weighted mean of the utilization step function.

        Degenerate series are handled explicitly: no samples yields an
        empty vector, a single sample (or all samples at one instant —
        zero span, e.g. every event at t=0) has no elapsed time to
        weight by, so the plain sample mean is returned. The result is
        always a fresh array — mutating it cannot corrupt the recording.
        """
        times, values = self.utilization_series
        if times.size == 0:
            return np.zeros(self.n_resources or 0)
        if times.size == 1:
            return values[0].copy()
        span = times[-1] - times[0]
        if span <= 0:
            return values.mean(axis=0)
        dt = np.diff(times)
        return (values[:-1] * dt[:, None]).sum(axis=0) / span
