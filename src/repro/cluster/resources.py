"""Schedulable resources: specs, system configurations, allocation pool.

The pool tracks, per resource, how many units are free and when the
busy ones are *estimated* to free (start + user walltime, §III-A); the
per-unit layout the state encoding reads is built from its grants when
first read. Estimates — never actual runtimes — feed the state encoding
and the reservation / backfill machinery, exactly as a production
scheduler would operate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle
    from repro.workload.job import Job

__all__ = [
    "ResourceSpec",
    "SystemConfig",
    "ResourcePool",
    "PoolDirtyTracker",
    "NODE",
    "BURST_BUFFER",
    "POWER",
]

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
        built once per config (the divisor of every normalised request)."""
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
        configuration (see DESIGN.md §5).
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


class PoolDirtyTracker:
    """Per-consumer record of which pool units changed since last drain.

    The incremental state encoder keeps a persistent copy of the
    per-unit availability/estimated-free blocks; rebuilding them from
    the pool every decision is O(ΣN) at full machine scale (Theta:
    5,682 units). A tracker registered on the pool turns that into a
    patch: it is fed where the pool applies a mutation to its per-unit
    arrays — at once for every ``allocate``/``release`` while a tracker
    is registered — with the exact unit-index arrays it touched;
    ``reset``, ``restore`` (or overflow) degrade it to a full-rebuild
    flag, and the consumer drains the accumulated regions on its next
    encode.

    Each chunk is one mutation: ``(idx, busy, est)`` — the sorted unit
    indices it touched, whether they became busy, and their (shared)
    new estimated free time. A unit allocated and released between two
    drains appears in two chunks; consumers apply chunks in order, so
    the last write is the pool's current state. Once the accumulated
    count exceeds half the machine, patching stops paying for itself
    and the tracker collapses to ``full`` on its own.
    """

    __slots__ = ("full", "_dirty", "_count", "_limit")

    def __init__(self, config: SystemConfig) -> None:
        self.full: bool = True  # a fresh tracker knows nothing yet
        self._dirty: dict[str, list[tuple[np.ndarray, bool, float]]] = {
            n: [] for n in config.names
        }
        self._count = 0
        total = sum(spec.units for spec in config.resources)
        self._limit = max(64, total // 2)

    def mark(self, name: str, idx: np.ndarray, busy: bool, est: float) -> None:
        """Record that the units ``idx`` of ``name`` changed state."""
        if self.full:
            return
        self._dirty[name].append((idx, busy, est))
        self._count += idx.size
        if self._count >= self._limit:
            self.mark_all()

    def mark_all(self) -> None:
        """Degrade to a full rebuild (reset, overflow, first use)."""
        self.full = True
        for chunks in self._dirty.values():
            chunks.clear()
        self._count = 0

    def drain(self) -> dict[str, list[tuple[np.ndarray, bool, float]]] | None:
        """Dirty chunks per resource since the last drain, mutation order.

        Returns ``None`` when everything must be rebuilt (the tracker
        then forgets the flag); otherwise a mapping holding only the
        resources that changed, each a list of ``(idx, busy, est)``
        chunks. Chunks are kept separate — not concatenated — because a
        single grant is very often a contiguous run of units whose new
        per-unit values are *constants*, which consumers can patch with
        scalar slice fills instead of gather/scatter. Either way the
        tracker is left clean.
        """
        if self.full:
            self.full = False
            self._count = 0
            for chunks in self._dirty.values():
                chunks.clear()
            return None
        out: dict[str, list[tuple[np.ndarray, bool, float]]] = {}
        for name, chunks in self._dirty.items():
            if not chunks:
                continue
            out[name] = chunks
            self._dirty[name] = []
        self._count = 0
        return out


def _add_units(times: list[float], units: list[int], est: float, amount: int) -> None:
    """Count ``amount`` more busy units freeing at ``est`` (times ascending)."""
    i = bisect_left(times, est)
    if i < len(times) and times[i] == est:
        units[i] += amount
    else:
        times.insert(i, est)
        units.insert(i, amount)


def _drop_units(times: list[float], units: list[int], est: float, amount: int) -> None:
    """Undo :func:`_add_units` for a released grant."""
    i = bisect_left(times, est)
    left = units[i] - amount
    if left:
        units[i] = left
    else:
        del times[i]
        del units[i]


def _kth_time(times: list[float], units: list[int], k: int) -> float:
    """The ``k``-th smallest (1-based) estimated free time of the busy units."""
    for est, count in zip(times, units):
        k -= count
        if k <= 0:
            return est
    raise IndexError(k)


class ResourcePool:
    """Allocation state for every resource of a system.

    What the pool keeps is what a decision without the network reads:

    * per resource, free-unit counters (``can_fit``, ``free_vector``);
    * per running job, its grant — the amount per resource and ``est``,
      the estimated time its units free (start + user walltime, §III-A);
    * per resource, the running grants' ``est`` values in ascending
      order beside their unit counts, two lists kept sorted with
      :mod:`bisect`. Every busy unit frees at its job's ``est``, so the
      k-th smallest estimated free time behind the EASY shadow queries
      (``earliest_fit_time``, ``free_units_at``, ``free_vector_at``) is
      a walk over cumulative counts.

    The per-unit layout — a ``busy`` bit and an ``est_free`` time per
    unit, and the unit indices each job holds — is the §III-A state the
    DFP network encodes, and only a decision that consults the network
    reads it. The pool keeps it as a cache. With no dirty tracker
    registered, ``allocate`` and ``release`` append to an ordered
    mutation log; every per-unit reader (:meth:`unit_arrays`,
    :meth:`unit_state`, :meth:`fill_unit_state`, :meth:`snapshot`,
    :meth:`register_tracker`) first applies the log, granting the
    lowest-index free units mutation by mutation, so the layout is the
    one an eagerly updated pool would hold. With a tracker registered,
    each mutation applies at once and trackers see its chunks in
    mutation order. Units are interchangeable; lowest-index grants keep
    the layout deterministic.

    :attr:`mutations` counts the calls that change the allocation —
    ``allocate``, ``release``, ``reset``, ``restore`` — so a reader can
    tell in one integer compare that nothing changed since it last
    looked (the EASY pass carries its verdicts by it).
    """

    #: Logged mutations after which the log is applied unread, bounding
    #: the memory of a long replay no reader looks at.
    _LOG_LIMIT = 1 << 14

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._names: tuple[str, ...] = tuple(config.names)
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
        #: job_id -> (est, [(resource, amount), ...]), requests order;
        #: never mutated once made
        self._grants: dict[int, tuple[float, list[tuple[str, int]]]] = {}
        #: per resource: distinct running ``est`` values ascending, and
        #: how many busy units free at each
        self._est_times: dict[str, list[float]] = {n: [] for n in self._names}
        self._est_units: dict[str, list[int]] = {n: [] for n in self._names}

        # -- the per-unit cache and its mutation log --
        self._busy: dict[str, np.ndarray] = {
            spec.name: np.zeros(spec.units, dtype=bool) for spec in config.resources
        }
        self._est_free: dict[str, np.ndarray] = {
            spec.name: np.zeros(spec.units) for spec in config.resources
        }
        #: busy units per resource in the arrays (lags ``_free`` by the log)
        self._applied_busy: dict[str, int] = dict.fromkeys(self._names, 0)
        #: job_id -> {resource: unit index array}, as applied
        self._allocations: dict[int, dict[str, np.ndarray]] = {}
        #: (job_id, grant) per allocate, (job_id, None) per release
        self._log: list[tuple[int, tuple | None]] = []
        #: dirty-region consumers (incremental state encoders); kept in
        #: a plain list so the no-tracker hot path costs one truth test
        #: per mutation.
        self._trackers: list[PoolDirtyTracker] = []
        #: allocation-changing calls so far (read-only to callers)
        self.mutations = 0

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
        for name, amount in job.requests.items():
            if amount > 0 and free[name] < amount:
                return False
        return True

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
        path — callers must treat both arrays as read-only, and read
        them again after a mutation: only a reader call applies logged
        mutations. Mutations belong to :meth:`allocate` /
        :meth:`release` / :meth:`reset` so registered dirty trackers
        stay truthful.
        """
        if self._log:
            self._apply_log()
        return self._busy[name], self._est_free[name]

    def running_jobs(self) -> list[int]:
        return list(self._grants)

    def earliest_est(self) -> float:
        """The earliest estimated free time of any busy unit, ``inf``
        when every unit is free: one read per resource."""
        first = inf
        for times in self._est_times.values():
            if times and times[0] < first:
                first = times[0]
        return first

    # -- dirty-region tracking ---------------------------------------------

    def register_tracker(self) -> PoolDirtyTracker:
        """Attach a new dirty tracker fed by every future mutation.

        The log is applied first: from here on mutations apply at once,
        so the tracker's chunks arrive in mutation order.
        """
        if self._log:
            self._apply_log()
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
        job_id = job.job_id
        if job_id in self._grants:
            raise RuntimeError(f"job {job_id} is already allocated")
        amounts = [(name, amount) for name, amount in job.requests.items() if amount > 0]
        free, free_arr, pos = self._free, self._free_arr, self._name_pos
        for name, amount in amounts:  # can_fit, on the list in hand
            if free[name] < amount:
                raise RuntimeError(f"job {job_id} does not fit")
        est = float(now + job.walltime)
        for name, amount in amounts:
            # One store of the exact count: cheaper than ``-=`` on a NumPy item.
            free_arr[pos[name]] = free[name] = free[name] - amount
            _add_units(self._est_times[name], self._est_units[name], est, amount)
        grant = (est, amounts)
        self._grants[job_id] = grant
        self.mutations += 1
        log = self._log
        log.append((job_id, grant))
        if self._trackers or len(log) >= self._LOG_LIMIT:
            self._apply_log()

    def release(self, job: Job) -> None:
        """Free every unit held by ``job``."""
        grant = self._grants.pop(job.job_id, None)
        if grant is None:
            raise RuntimeError(f"job {job.job_id} holds no allocation")
        est, amounts = grant
        free, free_arr, pos = self._free, self._free_arr, self._name_pos
        for name, amount in amounts:
            free_arr[pos[name]] = free[name] = free[name] + amount
            _drop_units(self._est_times[name], self._est_units[name], est, amount)
        self.mutations += 1
        log = self._log
        log.append((job.job_id, None))
        if self._trackers or len(log) >= self._LOG_LIMIT:
            self._apply_log()

    def _apply_log(self) -> None:
        """Replay the logged mutations onto the per-unit arrays, in order.

        An allocation takes the lowest free units of each resource: they
        lie in the first ``busy + amount`` slots, a prefix that holds at
        most ``busy`` busy units. The grant is a copy — the slice alone
        would keep the whole nonzero result alive for as long as the
        grant (and any tracker chunk) is held.
        """
        log, self._log = self._log, []
        trackers = self._trackers
        applied = self._applied_busy
        for job_id, grant in log:
            if grant is None:
                for name, idx in self._allocations.pop(job_id).items():
                    self._busy[name][idx] = False
                    self._est_free[name][idx] = 0.0
                    applied[name] -= idx.size
                    for tracker in trackers:
                        tracker.mark(name, idx, False, 0.0)
                continue
            est, amounts = grant
            units: dict[str, np.ndarray] = {}
            for name, amount in amounts:
                busy = self._busy[name]
                prefix = applied[name] + amount
                idx = (~busy[:prefix]).nonzero()[0][:amount].copy()
                busy[idx] = True
                self._est_free[name][idx] = est
                applied[name] = prefix
                units[name] = idx
                for tracker in trackers:
                    tracker.mark(name, idx, True, est)
            self._allocations[job_id] = units

    def reset(self) -> None:
        self.mutations += 1
        self._log = []
        for name in self._names:
            self._busy[name][...] = False
            self._est_free[name][...] = 0.0
            self._applied_busy[name] = 0
            self._free[name] = self._capacity[name]
            self._free_arr[self._name_pos[name]] = self._capacity[name]
            self._est_times[name].clear()
            self._est_units[name].clear()
        self._grants.clear()
        self._allocations.clear()
        for tracker in self._trackers:
            tracker.mark_all()

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> dict:
        """A self-contained copy of the pool's allocation state.

        Captures the per-unit arrays (the log applied first), free
        counters, the unit-index allocation map and the grants; the pool
        object itself (and its registered trackers / encoder
        attachments, which bind by identity) is not part of the
        snapshot, so :meth:`restore` can bring *this* pool back without
        disturbing those bindings.
        """
        if self._log:
            self._apply_log()
        return {
            "busy": {n: self._busy[n].copy() for n in self._names},
            "est_free": {n: self._est_free[n].copy() for n in self._names},
            "free": dict(self._free),
            "free_arr": self._free_arr.copy(),
            "allocations": {
                jid: {n: idx.copy() for n, idx in grant.items()}
                for jid, grant in self._allocations.items()
            },
            "grants": dict(self._grants),  # records are never mutated
        }

    def restore(self, snap: dict) -> None:
        """Restore state captured by :meth:`snapshot`, in place.

        The live unit arrays are overwritten rather than rebound so
        consumers holding views (the incremental encoder attaches to
        this pool by identity) stay valid; the log is dropped, and every
        registered tracker is degraded to a full rebuild because the
        patch history no longer describes the restored arrays.
        """
        self.mutations += 1
        self._log = []
        for name in self._names:
            self._busy[name][...] = snap["busy"][name]
            self._est_free[name][...] = snap["est_free"][name]
            self._est_times[name].clear()
            self._est_units[name].clear()
        self._free = dict(snap["free"])
        self._free_arr[...] = snap["free_arr"]
        self._applied_busy = {
            n: self._capacity[n] - self._free[n] for n in self._names
        }
        self._allocations = {
            jid: {n: idx.copy() for n, idx in grant.items()}
            for jid, grant in snap["allocations"].items()
        }
        self._grants = dict(snap["grants"])
        for est, amounts in self._grants.values():
            for name, amount in amounts:
                _add_units(self._est_times[name], self._est_units[name], est, amount)
        for tracker in self._trackers:
            tracker.mark_all()

    # -- scheduler support ---------------------------------------------------

    def unit_state(self, name: str, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit (availability bit, time-to-free) — paper §III-A encoding.

        Availability is 1 for free units; time-to-free is
        ``max(0, est_free - now)`` for busy units and 0 for free ones.
        """
        busy, est_free = self.unit_arrays(name)
        avail = (~busy).astype(float)
        ttf = np.where(busy, np.maximum(est_free - now, 0.0), 0.0)
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
        busy, est_free = self.unit_arrays(name)
        np.subtract(1.0, busy, out=avail_out)
        np.subtract(est_free, now, out=ttf_out)
        np.maximum(ttf_out, 0.0, out=ttf_out)

    def earliest_fit_time(self, job: Job, now: float) -> float:
        """Estimated earliest time ``job``'s full request can be satisfied.

        For each resource, take the request'th smallest estimated free
        time over all units (free units count as available ``now``); the
        answer is the max over resources. Used for reservation shadow
        times in EASY backfilling.

        The k-th smallest of {busy est-free times} ∪ {now × free units}
        is read off the sorted grant times: with ``c`` busy units
        estimated to free strictly before ``now`` and ``F`` free units,
        the statistic is a busy time when ``k ≤ c``, ``now`` while the
        free block covers ``k``, and the ``(k−F)``-th busy time beyond
        it otherwise — value-identical to partitioning the per-unit
        times.
        """
        t = now
        for name, amount in job.requests.items():
            if amount <= 0:
                continue
            if amount > self._capacity[name]:
                raise ValueError(
                    f"job {job.job_id} requests more {name} than system capacity"
                )
            times, units = self._est_times[name], self._est_units[name]
            n_free = self._free[name]
            if amount <= sum(units[: bisect_left(times, now)]):
                kth = _kth_time(times, units, amount)
            elif amount <= sum(units[: bisect_right(times, now)]) + n_free:
                kth = now
            else:
                kth = _kth_time(times, units, amount - n_free)
            t = max(t, kth)
        return t

    def free_units_at(self, name: str, when: float, now: float) -> int:
        """Estimated number of free units of ``name`` at time ``when``."""
        times = self._est_times[name]
        busy_by_then = sum(self._est_units[name][: bisect_right(times, when)])
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
            times = self._est_times[name]
            out[i] += sum(self._est_units[name][: bisect_right(times, when)])
        return out
