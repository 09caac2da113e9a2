"""Vector state encoding (paper §III-A).

The original DFP consumes images; MRSch replaces them with a fixed-size
vector because HPC jobs span seconds→weeks, which image rows cannot
express. The encoding concatenates:

* **per window job** (R+2 elements): the fraction of each resource's
  capacity requested, the user runtime estimate, and the time the job
  has queued — absent window slots are zero-padded so the vector size is
  fixed at ``(R+2)·W``;
* **per resource unit** (2 elements): an availability bit (1 = free)
  and, for busy units, the difference between the unit's *estimated*
  available time (start + user walltime) and the current time.

For Theta (W=10, 4392 nodes, 1290 BB units) this yields the paper's
[11410, 1] input; the formula ``(R+2)·W + 2·ΣN_j`` holds for any
configuration. Time features are normalised by a configurable scale and
clipped, keeping activations bounded without hiding ordering.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import ResourcePool, SystemConfig
from repro.workload.job import Job

__all__ = ["StateEncoder", "IncrementalStateEncoder"]

try:  # single-pass clamp ufunc (what np.clip wraps); numpy ≥ 2
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover - numpy < 2
    try:
        from numpy.core.umath import clip as _clip_ufunc
    except ImportError:
        _clip_ufunc = None


def _clamp(x: np.ndarray, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """``np.clip(x, lo, hi, out=out)`` minus the Python wrapper layers.

    One fused kernel sweep when the raw ufunc is available, else the
    maximum/minimum pair — elementwise identical either way (min∘max
    with lo ≤ hi is exactly what the clip kernel computes).
    """
    if _clip_ufunc is not None:
        return _clip_ufunc(x, lo, hi, out)
    np.maximum(x, lo, out=out)
    return np.minimum(out, hi, out=out)


def _coalesce_releases(chunks: list[tuple]) -> list[tuple]:
    """Merge *adjacent* release chunks into one scatter fill each.

    Job ends arrive in bursts between scheduling instances, and every
    release writes the same values (available, est 0), so consecutive
    release chunks collapse to a single fill. Two restrictions keep
    this exact:

    * only adjacent runs merge — an allocation later in the drain may
      reuse just-released units (the reservation start at the top of
      an instance does exactly this), so relative order with
      allocation chunks must survive;
    * a chunk joins a run only when the concatenation stays sorted
      (each per-grant array is ascending, so one scalar compare
      decides) — the patch loop's contiguous-slice shortcut infers the
      covered range from the first/last element, which is only sound
      on sorted indices.
    """
    out: list[tuple] = []
    run: list[np.ndarray] = []

    def flush() -> None:
        if run:
            out.append(
                (run[0] if len(run) == 1 else np.concatenate(run), False, 0.0)
            )
            run.clear()

    for chunk in chunks:
        if not chunk[1]:
            idx = chunk[0]
            if run and idx[0] < run[-1][-1]:
                flush()
            run.append(idx)
            continue
        flush()
        out.append(chunk)
    flush()
    return out


class StateEncoder:
    """Encodes (window, pool, clock) into the fixed-size DFP state vector."""

    def __init__(
        self,
        system: SystemConfig,
        window_size: int = 10,
        time_scale: float = 4 * 3600.0,
        time_clip: float = 8.0,
        paper_layout: bool = False,
    ) -> None:
        """``paper_layout=True`` reproduces the exact §III-A job vector of
        (R+2) elements. The default additionally appends R per-resource
        *shortfall* fractions, ``max(0, request − free)/capacity``, to
        each job — information already present in the per-unit
        availability block, restated compactly so that whether a job
        currently fits is linearly readable. At the paper's training
        volume the network can distil this from the raw availability
        bits; at laptop-scale budgets the restatement is what makes the
        fit condition learnable.
        """
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.system = system
        self.window_size = window_size
        self.time_scale = time_scale
        self.time_clip = time_clip
        self.paper_layout = paper_layout
        self._caps = system.capacities
        self._n_units = int(sum(system.capacity(n) for n in system.names))
        # Reused per-call scratch: the window request matrix. Rows are
        # refilled in place each encode, so window-block assembly
        # allocates nothing per decision beyond the state vector itself.
        self._reqs_buf = np.zeros((window_size, system.n_resources))
        self._checked_config: SystemConfig | None = None

    def _check_pool(self, pool: ResourcePool) -> None:
        """Reject pools whose resource layout differs from the system's.

        The encoder reads the pool's config-ordered vectors
        positionally, so name order and capacities must line up.
        Validated once per config object (one identity compare per call
        thereafter) — the config is cached rather than the pool so the
        encoder never pins a finished run's pool state alive.
        """
        config = pool.config
        if config is self._checked_config:
            return
        if config is not self.system and (
            config.names != self.system.names
            or any(
                config.capacity(n) != self.system.capacity(n)
                for n in self.system.names
            )
        ):
            raise ValueError(
                "pool resource layout does not match the encoder's system "
                f"({config.names} vs {self.system.names})"
            )
        self._checked_config = config

    @property
    def n_resources(self) -> int:
        return self.system.n_resources

    @property
    def job_dim(self) -> int:
        """Elements per window job: R request fractions + runtime +
        queued (+ R shortfall fractions unless ``paper_layout``)."""
        base = self.n_resources + 2
        return base if self.paper_layout else base + self.n_resources

    @property
    def state_dim(self) -> int:
        """Total state vector length: ``job_dim·W + 2·ΣN_j``."""
        return self.job_dim * self.window_size + 2 * self._n_units

    def _squash(self, seconds: float | np.ndarray) -> float | np.ndarray:
        return np.clip(np.asarray(seconds) / self.time_scale, 0.0, self.time_clip)

    def encode(self, window: list[Job], pool: ResourcePool, now: float) -> np.ndarray:
        """Build the state vector for one scheduling instance."""
        if len(window) > self.window_size:
            raise ValueError(
                f"window has {len(window)} jobs, encoder sized for {self.window_size}"
            )
        self._check_pool(pool)
        state = np.zeros(self.state_dim)
        per = self.job_dim
        names = self.system.names
        if window:
            # One vectorised fill of every populated slot's feature block.
            # ``free_vector`` is the pool's live config-ordered counter
            # array (read-only here) and ``_reqs_buf`` a reused scratch
            # matrix — no per-call temporaries beyond the state itself.
            free = pool.free_vector()
            reqs = self._reqs_buf[: len(window)]
            for i, job in enumerate(window):
                for k, name in enumerate(names):
                    reqs[i, k] = job.request(name)
            slots = state[: len(window) * per].reshape(len(window), per)
            slots[:, : self.n_resources] = reqs / self._caps
            slots[:, self.n_resources] = self._squash(
                np.array([job.walltime for job in window])
            )
            slots[:, self.n_resources + 1] = self._squash(
                now - np.array([job.submit_time for job in window])
            )
            if not self.paper_layout:
                slots[:, self.n_resources + 2 :] = (
                    np.maximum(reqs - free, 0.0) / self._caps
                )

        offset = per * self.window_size
        for name, cap in zip(names, self._caps):
            n = int(cap)
            avail = state[offset : offset + n]
            ttf = state[offset + n : offset + 2 * n]
            # In-place fill + squash of the per-unit block — the per
            # decision unit_state/clip temporaries this replaces were
            # the encoder's main allocation cost.
            pool.fill_unit_state(name, now, avail, ttf)
            np.divide(ttf, self.time_scale, out=ttf)
            np.clip(ttf, 0.0, self.time_clip, out=ttf)
            offset += 2 * n
        return state

    def window_mask(self, window: list[Job]) -> np.ndarray:
        """Boolean mask of populated window slots (the valid actions)."""
        mask = np.zeros(self.window_size, dtype=bool)
        mask[: min(len(window), self.window_size)] = True
        return mask


class IncrementalStateEncoder:
    """Maintains the §III-A state vector *across* decisions.

    :meth:`StateEncoder.encode` rebuilds the full ``(R+2)·W + 2·ΣN_j``
    vector from zeros for every scheduling decision — at real Theta
    scale an 11k-element reconstruction whose per-unit block barely
    changes between consecutive decisions. This encoder keeps one
    persistent state buffer and patches it instead:

    * **availability bits** are rewritten only at the unit indices a
      registered :class:`~repro.cluster.resources.PoolDirtyTracker`
      reports as touched by ``allocate``/``release`` since the last
      decision;
    * **time-to-free** derives from a contiguous mirror of every unit's
      estimated free time, so a clock advance is one fused vectorized
      subtract → clamp → scale → clip over all units (no per-resource
      Python loop), and decisions *within* a scheduling instance (same
      clock) patch only the dirty units;
    * **window job blocks** cache each job's static features (raw and
      fractional requests, squashed walltime, submit time) keyed by job
      identity, so a window that merely *shifted* after a start costs a
      few row copies; per decision only the queued-time and shortfall
      columns are recomputed, as two short vectorized passes.

    The output is **bit-identical** to ``StateEncoder.encode`` on the
    same (window, pool, clock) — every feature is produced by the same
    elementwise IEEE operations in the same order, only batched
    differently. The hypothesis property test in
    ``tests/unit/test_encoding_incremental.py`` pins this over random
    allocate/release/clock histories in both layout modes.

    The returned array is the encoder's own buffer: valid until the
    next :meth:`encode` call, never to be mutated by the caller. Take a
    ``.copy()`` to retain it (the MRSch scheduler does exactly that
    when training or tracing).
    """

    def __init__(self, base: StateEncoder) -> None:
        self.base = base
        system = base.system
        self._names = system.names
        self._n_res = system.n_resources
        #: per-resource unit counts, state offsets of the avail/ttf
        #: halves, and segment offsets into the contiguous est mirror
        self._unit_counts = [int(system.capacity(n)) for n in self._names]
        self._avail_off: list[int] = []
        self._ttf_off: list[int] = []
        self._seg_off: list[int] = []
        offset = base.job_dim * base.window_size
        seg = 0
        for n_units in self._unit_counts:
            self._avail_off.append(offset)
            self._ttf_off.append(offset + n_units)
            self._seg_off.append(seg)
            offset += 2 * n_units
            seg += n_units
        self._name_pos = {name: r for r, name in enumerate(self._names)}
        # Immutable encoder parameters, denormalised from ``base`` so
        # the per-decision path never re-evaluates properties.
        self._per = base.job_dim
        self._ts = base.time_scale
        self._tclip = base.time_clip
        self._caps = base._caps
        self._paper = base.paper_layout

        self._state = np.zeros(base.state_dim)
        #: the window block as a (W, job_dim) view, cached once
        self._slots_all = self._state[
            : base.window_size * base.job_dim
        ].reshape(base.window_size, base.job_dim)
        #: contiguous est-free mirror of every unit (config order) and
        #: the equally-shaped scratch the fused time-to-free pass fills
        self._est_all = np.zeros(base._n_units)
        self._ttf_scratch = np.zeros(base._n_units)

        w, r = base.window_size, self._n_res
        self._reqs = np.zeros((w, r))
        self._submits: list[float] = [0.0] * w
        self._slot_jobs: list[Job | None] = [None] * w
        self._scr_wr = np.zeros((w, r))
        self._move_scratch = np.empty(w * base.job_dim)
        self._n_slots = 0
        #: id(job) → (job, raw requests, request fractions, squashed
        #: walltime, submit time). The job reference keeps the object
        #: alive, so a live id() can never be recycled onto a different
        #: job; bounded by wholesale clearing when it outgrows any
        #: plausible working set.
        self._job_cache: dict[int, tuple] = {}

        self._pool: ResourcePool | None = None
        self._tracker = None
        self._last_now: float | None = None

    # -- attachment --------------------------------------------------------

    def attach(self, pool: ResourcePool) -> None:
        """Bind to ``pool``; detaches from any previous pool first.

        Called lazily by :meth:`encode` whenever the pool object
        changes (a new simulator run builds a new pool), so callers
        normally never invoke it directly.
        """
        if self._pool is pool:
            return
        self.base._check_pool(pool)
        self.detach()
        self._pool = pool
        self._tracker = pool.register_tracker()
        self._invalidate()

    def detach(self) -> None:
        """Drop the pool binding and its dirty tracker."""
        if self._pool is not None and self._tracker is not None:
            self._pool.unregister_tracker(self._tracker)
        self._pool = None
        self._tracker = None
        self._invalidate()

    def _invalidate(self) -> None:
        self._last_now = None
        self._slot_jobs = [None] * self.base.window_size
        self._state[: self.base.job_dim * self.base.window_size] = 0.0
        self._n_slots = 0
        self._job_cache.clear()
        if self._tracker is not None:
            self._tracker.mark_all()

    # -- encoding ----------------------------------------------------------

    def encode(self, window: list[Job], pool: ResourcePool, now: float) -> np.ndarray:
        """Patch the persistent buffer to (window, pool, now) and return it."""
        base = self.base
        if len(window) > base.window_size:
            raise ValueError(
                f"window has {len(window)} jobs, encoder sized for {base.window_size}"
            )
        if pool is not self._pool:
            self.attach(pool)
        same_clock = self._last_now is not None and now == self._last_now
        self._patch_units(pool, now, same_clock)
        self._fill_window(window, pool, now, same_clock)
        self._last_now = now
        return self._state

    #: The scheduler's once-per-decision entry point: :meth:`encode`
    #: under its own name, so the encode layer can be timed where a
    #: decision pays for it (``benchmarks/e2e/trace.py`` wraps it).
    encode_decision = encode

    def _patch_units(self, pool: ResourcePool, now: float, same_clock: bool) -> None:
        # Clamping goes through :func:`_clamp` (the raw clip kernel)
        # rather than ``np.clip``: identical elementwise results,
        # without np.clip's Python dispatch layers (~µs per call, which
        # at one or two calls per decision is real money here).
        state = self._state
        ts = self._ts
        clip = self._tclip
        dirty = self._tracker.drain()
        if dirty is None:
            # Full rebuild of the availability bits and the est mirror;
            # the fused pass below recomputes every time-to-free.
            for r, name in enumerate(self._names):
                busy, est = pool.unit_arrays(name)
                n = self._unit_counts[r]
                a0 = self._avail_off[r]
                np.subtract(1.0, busy, out=state[a0 : a0 + n])
                s0 = self._seg_off[r]
                self._est_all[s0 : s0 + n] = est
            same_clock = False
        else:
            for name, chunks in dirty.items():
                r = self._name_pos[name]
                n = self._unit_counts[r]
                a0, t0, s0 = self._avail_off[r], self._ttf_off[r], self._seg_off[r]
                if len(chunks) > 8 or sum(c[0].size for c in chunks) * 4 > n:
                    # Wide or fragmented dirty region: contiguous sweeps
                    # from the live pool arrays beat per-chunk patching.
                    busy, est = pool.unit_arrays(name)
                    np.subtract(1.0, busy, out=state[a0 : a0 + n])
                    est_seg = self._est_all[s0 : s0 + n]
                    est_seg[...] = est
                    if same_clock:
                        seg = self._ttf_scratch[s0 : s0 + n]
                        np.subtract(est_seg, now, out=seg)
                        np.divide(seg, ts, out=seg)
                        _clamp(seg, 0.0, clip, out=state[t0 : t0 + n])
                    continue
                if len(chunks) > 1:
                    chunks = _coalesce_releases(chunks)
                avail = state[a0 : a0 + n]
                ttf_block = state[t0 : t0 + n]
                est_seg = self._est_all[s0 : s0 + n]
                for idx, became_busy, est_val in chunks:
                    # One mutation's units share one availability bit,
                    # one estimated free time, and therefore (at a fixed
                    # clock) one time-to-free — three scalar fills, no
                    # reads of the pool arrays at all. The scalar
                    # arithmetic is the same IEEE-double sequence the
                    # reference applies per element.
                    avail_val = 0.0 if became_busy else 1.0
                    lo = int(idx[0])
                    hi = int(idx[-1]) + 1
                    where = slice(lo, hi) if hi - lo == idx.size else idx
                    avail[where] = avail_val
                    est_seg[where] = est_val
                    if same_clock:
                        ttf_block[where] = min(
                            max((est_val - now) / ts, 0.0), clip
                        )
        if not same_clock:
            # Whole-machine time-to-free for the new clock: vectorized
            # sweeps over the contiguous est mirror, the final clamp
            # landing straight in the state's per-resource ttf slices
            # (no per-unit Python work, no intermediate copies). The
            # reference path clamps negatives *before* scaling
            # (max(est−now, 0)/ts then clip); with ts > 0 the clamp
            # commutes with the division, so clamp(x/ts) yields
            # bit-identical values in one fewer sweep.
            scratch = self._ttf_scratch
            np.subtract(self._est_all, now, out=scratch)
            np.divide(scratch, ts, out=scratch)
            for r in range(self._n_res):
                n = self._unit_counts[r]
                t0, s0 = self._ttf_off[r], self._seg_off[r]
                _clamp(scratch[s0 : s0 + n], 0.0, clip, out=state[t0 : t0 + n])

    def _fill_window(
        self, window: list[Job], pool: ResourcePool, now: float, same_clock: bool
    ) -> None:
        state = self._state
        per = self._per
        n = len(window)
        nr = self._n_res
        slot_jobs = self._slot_jobs
        cache = self._job_cache
        ts, tclip = self._ts, self._tclip
        prev_n = self._n_slots

        # Shift fast path: the dominant window transition in the §III-C
        # loop is "job at position a started, later slots moved up one".
        # Three block moves relocate every surviving row — state block
        # (queued time rides along, still valid at the same clock),
        # request matrix, submit times — instead of per-slot rewrites.
        if n and prev_n:
            a = 0
            bound = min(n, prev_n)
            while a < bound and slot_jobs[a] is window[a]:
                a += 1
            shift_len = min(prev_n - 1, n) - a
            if shift_len > 0 and all(
                slot_jobs[a + 1 + j] is window[a + j] for j in range(shift_len)
            ):
                hi = a + shift_len
                # Move the surviving rows down through a preallocated
                # scratch (overlapping same-array assignment would make
                # NumPy allocate a temporary per shift).
                move = self._move_scratch[: shift_len * per]
                move[...] = state[(a + 1) * per : (hi + 1) * per]
                state[a * per : hi * per] = move
                self._reqs[a:hi] = self._reqs[a + 1 : hi + 1]
                self._submits[a:hi] = self._submits[a + 1 : hi + 1]
                slot_jobs[a:hi] = slot_jobs[a + 1 : hi + 1]
                slot_jobs[hi] = None  # the vacated tail position is stale

        for i, job in enumerate(window):
            if slot_jobs[i] is job:
                continue
            slot_jobs[i] = job
            entry = cache.get(id(job))
            if entry is None or entry[0] is not job:
                # First sight of this job: extract and pre-normalise its
                # static features. Scalar Python arithmetic — ``/``,
                # ``min``/``max`` — performs the same IEEE-double
                # operations as the reference's vectorized divide/clip,
                # so the cached values are bit-identical to a fresh
                # encode of the same job.
                raw = np.array(
                    [job.request(name) for name in self._names], dtype=float
                )
                entry = (
                    job,
                    raw,
                    raw / self._caps,
                    min(max(job.walltime / ts, 0.0), tclip),
                    job.submit_time,
                )
                if len(cache) > 8192:
                    cache.clear()
                cache[id(job)] = entry
            # Static columns land in the state once per (slot, job)
            # pairing; only the time/feasibility columns below move
            # between decisions.
            self._reqs[i] = entry[1]
            row = state[i * per : (i + 1) * per]
            row[:nr] = entry[2]
            row[nr] = entry[3]
            self._submits[i] = entry[4]
            if same_clock:
                # Queued time for a freshly-placed slot, scalar IEEE
                # arithmetic again; unshifted/shifted rows already
                # carry the correct value for this clock.
                row[nr + 1] = min(max((now - entry[4]) / ts, 0.0), tclip)
        if n:
            slots = self._slots_all[:n]
            if not same_clock:
                # Queued time moved for every populated slot; at W ≤ 10
                # a scalar loop beats vectorized dispatch, and the
                # Python arithmetic is IEEE-identical to the reference.
                submits = self._submits
                col = nr + 1
                for i in range(n):
                    state[i * per + col] = min(
                        max((now - submits[i]) / ts, 0.0), tclip
                    )
            if not self._paper:
                # The shortfall columns depend on the live free counts,
                # which essentially always moved between decisions (a
                # start or a release is what triggers re-selection).
                short = self._scr_wr[:n]
                np.subtract(self._reqs[:n], pool.free_vector(), out=short)
                np.maximum(short, 0.0, out=short)
                np.divide(short, self._caps, out=slots[:, nr + 2 :])
        if n < prev_n:
            # Slots that held jobs last decision but are empty now must
            # read as zero padding, exactly like a fresh encode.
            state[n * per : prev_n * per] = 0.0
            for i in range(n, prev_n):
                slot_jobs[i] = None
        self._n_slots = n
