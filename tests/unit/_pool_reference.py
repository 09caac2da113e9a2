"""The eager resource pool, kept as the oracle of the lazy one.

This is the body ``repro.cluster.resources.ResourcePool`` shipped while
every ``allocate`` and ``release`` rewrote the per-unit ``busy`` /
``est_free`` arrays at once and every EASY shadow query sorted them.
The library pool now answers order-statistic queries from its running
grants and replays per-unit arrays only when a reader asks for them;
``test_pool_lazy.py`` holds it to this class, mutation for mutation:
unit arrays, snapshot allocations, tracker chunks and every
order-statistic answer.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import PoolDirtyTracker, SystemConfig
from repro.workload.job import Job

__all__ = ["EagerResourcePool"]


class EagerResourcePool:
    """Allocation state for every resource of a system.

    Per resource ``r`` the pool keeps two parallel arrays of length
    ``capacity(r)``:

    * ``busy``    — boolean, unit currently allocated,
    * ``est_free``— estimated time the unit frees (start + walltime);
      meaningful only where ``busy`` is set.

    Units are interchangeable; allocation picks the lowest-index free
    units so behaviour is deterministic.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._names: tuple[str, ...] = tuple(config.names)
        self._busy: dict[str, np.ndarray] = {
            spec.name: np.zeros(spec.units, dtype=bool) for spec in config.resources
        }
        self._est_free: dict[str, np.ndarray] = {
            spec.name: np.zeros(spec.units) for spec in config.resources
        }
        # Incremental accounting: free-unit counters maintained by
        # allocate/release so the hot-path queries (can_fit, free_units,
        # utilization — called for every window job at every scheduling
        # instance) are O(resources) instead of O(units).
        self._capacity: dict[str, int] = {
            spec.name: spec.units for spec in config.resources
        }
        self._free: dict[str, int] = dict(self._capacity)
        self._caps_arr = config.capacities
        # The same counters as a config-ordered vector, for the
        # vectorized backfill pass (read-only to callers).
        self._free_arr = config.capacities.copy()
        self._name_pos: dict[str, int] = {
            spec.name: i for i, spec in enumerate(config.resources)
        }
        # Lazily-maintained sorted estimated-free-time arrays of the
        # *busy* units of each resource. earliest_fit_time/free_units_at
        # are order-statistic queries; sorting once per pool mutation and
        # answering each query with a searchsorted amortizes an EASY
        # pass (shadow time + per-resource spare units) to O(log units)
        # per query instead of a fresh O(units) partition each.
        self._sorted_busy: dict[str, np.ndarray | None] = {
            spec.name: None for spec in config.resources
        }
        #: job_id -> {resource: unit index array}
        self._allocations: dict[int, dict[str, np.ndarray]] = {}
        #: dirty-region consumers (incremental state encoders); kept in
        #: a plain list so the no-tracker hot path costs one truth test
        #: per mutation.
        self._trackers: list[PoolDirtyTracker] = []

    # -- queries ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Resource names in config order — the order of every vector
        this pool hands out."""
        return self._names

    def free_units(self, name: str) -> int:
        return self._free[name]

    def busy_units(self, name: str) -> int:
        return self._capacity[name] - self._free[name]

    def utilization(self, name: str) -> float:
        """Instantaneous busy fraction of a resource."""
        capacity = self._capacity[name]
        return (capacity - self._free[name]) / capacity

    def utilizations(self) -> np.ndarray:
        """Instantaneous utilization of every resource, config order."""
        return (self._caps_arr - self._free_arr) / self._caps_arr

    def can_fit(self, job: Job) -> bool:
        """True when every requested resource has enough free units."""
        free = self._free
        return all(
            free[name] >= amount
            for name, amount in job.requests.items()
            if amount > 0
        )

    def free_vector(self) -> np.ndarray:
        """Free-unit counts in config order.

        A live internal array — callers must treat it as read-only; it
        exists so the vectorized EASY pass can compare the whole queue's
        request matrix against it without rebuilding a vector per start.
        """
        return self._free_arr

    def unit_arrays(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The live ``(busy, est_free)`` unit arrays of ``name``.

        Internal state exposed for the incremental encoder's patching
        path — callers must treat both arrays as read-only; mutations
        belong to :meth:`allocate`/:meth:`release`/:meth:`reset` so
        registered dirty trackers stay truthful.
        """
        return self._busy[name], self._est_free[name]

    def running_jobs(self) -> list[int]:
        return list(self._allocations)

    # -- dirty-region tracking ---------------------------------------------

    def register_tracker(self) -> PoolDirtyTracker:
        """Attach a new dirty tracker fed by every future mutation."""
        tracker = PoolDirtyTracker(self.config)
        self._trackers.append(tracker)
        return tracker

    def unregister_tracker(self, tracker: PoolDirtyTracker) -> None:
        """Detach ``tracker``; unknown trackers are ignored."""
        try:
            self._trackers.remove(tracker)
        except ValueError:
            pass

    # -- state transitions -------------------------------------------------

    def allocate(self, job: Job, now: float) -> None:
        """Allocate units for ``job`` starting at ``now``.

        Estimated free time is ``now + walltime`` — the scheduler-visible
        estimate, not the hidden actual runtime.
        """
        if job.job_id in self._allocations:
            raise RuntimeError(f"job {job.job_id} is already allocated")
        if not self.can_fit(job):
            raise RuntimeError(f"job {job.job_id} does not fit")
        grant: dict[str, np.ndarray] = {}
        est = now + job.walltime
        trackers = self._trackers
        for name, amount in job.requests.items():
            if amount <= 0:
                continue
            # The lowest ``amount`` free units lie in the first
            # ``busy + amount`` slots: that prefix holds at most ``busy``
            # busy units. A copy: the slice alone would keep the whole
            # nonzero result alive for as long as the grant (and any
            # tracker chunk) is held.
            prefix = self._capacity[name] - self._free[name] + amount
            free_idx = (~self._busy[name][:prefix]).nonzero()[0][:amount].copy()
            self._busy[name][free_idx] = True
            self._est_free[name][free_idx] = est
            self._free[name] -= amount
            self._free_arr[self._name_pos[name]] -= amount
            self._sorted_busy[name] = None
            grant[name] = free_idx
            if trackers:
                for tracker in trackers:
                    tracker.mark(name, free_idx, True, est)
        self._allocations[job.job_id] = grant

    def release(self, job: Job) -> None:
        """Free every unit held by ``job``."""
        grant = self._allocations.pop(job.job_id, None)
        if grant is None:
            raise RuntimeError(f"job {job.job_id} holds no allocation")
        trackers = self._trackers
        for name, idx in grant.items():
            self._busy[name][idx] = False
            self._est_free[name][idx] = 0.0
            self._free[name] += idx.size
            self._free_arr[self._name_pos[name]] += idx.size
            self._sorted_busy[name] = None
            if trackers:
                for tracker in trackers:
                    tracker.mark(name, idx, False, 0.0)

    def reset(self) -> None:
        for name in self.config.names:
            self._busy[name][...] = False
            self._est_free[name][...] = 0.0
            self._free[name] = self._capacity[name]
            self._free_arr[self._name_pos[name]] = self._capacity[name]
            self._sorted_busy[name] = None
        self._allocations.clear()
        for tracker in self._trackers:
            tracker.mark_all()

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> dict:
        """A self-contained copy of the pool's allocation state.

        Captures the per-unit arrays, free counters and the allocation
        map; the pool object itself (and its registered trackers /
        encoder attachments, which bind by identity) is not part of the
        snapshot, so :meth:`restore` can bring *this* pool back without
        disturbing those bindings.
        """
        return {
            "busy": {n: self._busy[n].copy() for n in self._names},
            "est_free": {n: self._est_free[n].copy() for n in self._names},
            "free": dict(self._free),
            "free_arr": self._free_arr.copy(),
            "allocations": {
                jid: {n: idx.copy() for n, idx in grant.items()}
                for jid, grant in self._allocations.items()
            },
        }

    def restore(self, snap: dict) -> None:
        """Restore state captured by :meth:`snapshot`, in place.

        The live unit arrays are overwritten rather than rebound so
        consumers holding views (the incremental encoder attaches to
        this pool by identity) stay valid; every registered tracker is
        degraded to a full rebuild because the patch history no longer
        describes the restored arrays.
        """
        for name in self._names:
            self._busy[name][...] = snap["busy"][name]
            self._est_free[name][...] = snap["est_free"][name]
            self._sorted_busy[name] = None
        self._free = dict(snap["free"])
        self._free_arr[...] = snap["free_arr"]
        self._allocations = {
            jid: {n: idx.copy() for n, idx in grant.items()}
            for jid, grant in snap["allocations"].items()
        }
        for tracker in self._trackers:
            tracker.mark_all()

    # -- scheduler support ---------------------------------------------------

    def unit_state(self, name: str, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit (availability bit, time-to-free) — paper §III-A encoding.

        Availability is 1 for free units; time-to-free is
        ``max(0, est_free - now)`` for busy units and 0 for free ones.
        """
        busy = self._busy[name]
        avail = (~busy).astype(float)
        ttf = np.where(busy, np.maximum(self._est_free[name] - now, 0.0), 0.0)
        return avail, ttf

    def fill_unit_state(
        self, name: str, now: float, avail_out: np.ndarray, ttf_out: np.ndarray
    ) -> None:
        """Write :meth:`unit_state` into caller-owned buffers.

        The state encoder calls this once per resource per decision with
        slices of the state vector, avoiding the intermediate
        availability/time-to-free allocations. Free units carry
        ``est_free == 0`` and the clock is non-negative, so the clamped
        subtraction reproduces the reference values exactly.
        """
        np.subtract(1.0, self._busy[name], out=avail_out)
        np.subtract(self._est_free[name], now, out=ttf_out)
        np.maximum(ttf_out, 0.0, out=ttf_out)

    def _sorted_busy_times(self, name: str) -> np.ndarray:
        """Ascending estimated free times of the busy units of ``name``.

        Cached and invalidated lazily: allocate/release/reset drop the
        cache, the first order-statistic query after a mutation rebuilds
        it, and every further query in the same pool state (the rest of
        an EASY pass, repeated shadow computations for the same
        reservation across instances) is a binary search.
        """
        cached = self._sorted_busy[name]
        if cached is None:
            cached = np.sort(self._est_free[name][self._busy[name]])
            self._sorted_busy[name] = cached
        return cached

    def earliest_fit_time(self, job: Job, now: float) -> float:
        """Estimated earliest time ``job``'s full request can be satisfied.

        For each resource, take the request'th smallest estimated free
        time over all units (free units count as available ``now``); the
        answer is the max over resources. Used for reservation shadow
        times in EASY backfilling.

        The k-th smallest of {busy est-free times} ∪ {now × free units}
        is read off the cached sorted busy array: with ``c`` busy times
        strictly below ``now`` and ``F`` free units, the statistic is a
        busy time when ``k ≤ c``, ``now`` while the free block covers
        ``k``, and the ``(k−F)``-th busy time beyond it otherwise —
        value-identical to partitioning the merged array.
        """
        t = now
        for name, amount in job.requests.items():
            if amount <= 0:
                continue
            if amount > self._capacity[name]:
                raise ValueError(
                    f"job {job.job_id} requests more {name} than system capacity"
                )
            times = self._sorted_busy_times(name)
            n_free = self._free[name]
            below = int(times.searchsorted(now, side="left"))
            at_or_below = int(times.searchsorted(now, side="right"))
            if amount <= below:
                kth = float(times[amount - 1])
            elif amount <= at_or_below + n_free:
                kth = now
            else:
                kth = float(times[amount - n_free - 1])
            t = max(t, kth)
        return t

    def free_units_at(self, name: str, when: float, now: float) -> int:
        """Estimated number of free units of ``name`` at time ``when``."""
        busy_by_then = int(
            self._sorted_busy_times(name).searchsorted(when, side="right")
        )
        free_now = self._free[name] if now <= when else 0
        return free_now + busy_by_then

    def free_vector_at(self, when: float, now: float) -> np.ndarray:
        """:meth:`free_units_at` of every resource, config order.

        A fresh float vector (counts are small integers, exact in
        float64) the EASY pass owns and decrements as spare-consuming
        candidates start.
        """
        out = self._free_arr.copy() if now <= when else np.zeros(len(self._names))
        for i, name in enumerate(self._names):
            out[i] += self._sorted_busy_times(name).searchsorted(when, side="right")
        return out
