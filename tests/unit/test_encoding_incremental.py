"""Incremental state encoder ≡ fresh ``StateEncoder.encode``, bit for bit.

The PR-5 decision fast path patches a persistent state buffer from pool
dirty regions instead of rebuilding the §III-A vector per decision. Its
whole contract is *bit-identity* with the fresh encoder — these tests
pin it with a hypothesis property over random allocate/release/clock/
reset histories (both layout modes), plus unit tests for the dirty
tracker, the attachment lifecycle, and the window byproducts the MRSch
prior consumes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import (
    BURST_BUFFER,
    NODE,
    ResourcePool,
    ResourceSpec,
    SystemConfig,
)
from repro.core.encoding import IncrementalStateEncoder, StateEncoder
from repro.sim.simulator import Simulator
from tests.conftest import make_job


def small_system() -> SystemConfig:
    return SystemConfig(
        resources=(ResourceSpec(NODE, 16), ResourceSpec(BURST_BUFFER, 8))
    )


def job_pool(rng: np.random.Generator, n: int = 24) -> list:
    return [
        make_job(
            job_id=i + 1,
            submit=float(rng.integers(0, 100)),
            runtime=float(rng.integers(10, 500)),
            walltime=float(rng.integers(500, 2000)),
            nodes=int(rng.integers(0, 10)),
            bb=int(rng.integers(0, 5)),
        )
        for i in range(n)
    ]


def encoder_pair(paper: bool, window: int = 4):
    system = small_system()
    fresh = StateEncoder(
        system, window_size=window, time_scale=100.0, paper_layout=paper
    )
    inc = IncrementalStateEncoder(
        StateEncoder(system, window_size=window, time_scale=100.0, paper_layout=paper)
    )
    return system, fresh, inc


class TestBitIdentity:
    """The property the whole fast path rests on."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        paper=st.booleans(),
        steps=st.integers(10, 80),
        big=st.booleans(),
    )
    def test_random_histories_bit_identical(self, seed, paper, steps, big):
        # ``big`` uses a 64+32-unit system where dirty regions stay
        # narrow, exercising the chunk/coalesce patch paths that the
        # tiny system's wide-rebuild threshold would mask.
        if big:
            system = SystemConfig.mini_theta(nodes=64, bb_units=32)
            fresh = StateEncoder(
                system, window_size=4, time_scale=100.0, paper_layout=paper
            )
            inc = IncrementalStateEncoder(
                StateEncoder(
                    system, window_size=4, time_scale=100.0, paper_layout=paper
                )
            )
        else:
            system, fresh, inc = encoder_pair(paper)
        rng = np.random.default_rng(seed)
        jobs = job_pool(rng)
        pool = ResourcePool(system)
        active: list = []
        now = 0.0
        for _ in range(steps):
            op = int(rng.integers(0, 6))
            if op == 0:
                now += float(rng.integers(1, 200))
            elif op == 1 and active:
                pool.release(active.pop(int(rng.integers(0, len(active)))))
            elif op in (2, 5):
                candidates = [j for j in jobs if j not in active]
                if candidates:
                    job = candidates[int(rng.integers(0, len(candidates)))]
                    if pool.can_fit(job):
                        pool.allocate(job, now)
                        active.append(job)
            elif op == 3 and rng.random() < 0.1:
                pool.reset()
                active = []
            size = int(rng.integers(0, 5))
            picks = rng.choice(len(jobs), size=size, replace=False)
            window = [jobs[i] for i in picks]
            a = fresh.encode(window, pool, now)
            b = inc.encode(window, pool, now)
            np.testing.assert_array_equal(a, b)
            if size:
                expected_fits = np.array([pool.can_fit(j) for j in window])
                np.testing.assert_array_equal(
                    inc.window_fits(size, pool), expected_fits
                )

    def test_unsorted_release_burst_coalescing(self):
        """Release chunks whose concatenation would be unsorted must not
        merge: the patch loop's contiguous-slice shortcut infers the
        covered range from the first/last element. Regression for the
        grants-[3,4]+[1,2]+[7] corruption (64-node pool keeps the dirty
        region narrow, so the chunk path — not the wide sweep — runs).
        """
        system = SystemConfig.mini_theta(nodes=64, bb_units=32)
        fresh = StateEncoder(system, window_size=4, time_scale=100.0)
        inc = IncrementalStateEncoder(
            StateEncoder(system, window_size=4, time_scale=100.0)
        )
        pool = ResourcePool(system)
        a = make_job(job_id=1, nodes=1, runtime=100.0, walltime=900.0)
        b = make_job(job_id=2, nodes=2, runtime=100.0, walltime=900.0)
        c = make_job(job_id=3, nodes=2, runtime=100.0, walltime=900.0)
        d = make_job(job_id=4, nodes=2, runtime=100.0, walltime=900.0)
        e = make_job(job_id=5, nodes=1, runtime=100.0, walltime=900.0)
        for job in (a, b, c, d, e):  # grants [0], [1,2], [3,4], [5,6], [7]
            pool.allocate(job, 0.0)
        np.testing.assert_array_equal(
            fresh.encode([], pool, 5.0), inc.encode([], pool, 5.0)
        )
        pool.release(c)  # chunk [3,4]
        pool.release(b)  # chunk [1,2] — would unsort a naive concat
        pool.release(e)  # chunk [7]
        np.testing.assert_array_equal(
            fresh.encode([], pool, 5.0), inc.encode([], pool, 5.0)
        )

    def test_release_then_realloc_same_units(self):
        """Backfill pattern: a reservation grabs just-released units
        before the next encode — chunk order must be preserved."""
        system, fresh, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        a = make_job(job_id=1, nodes=8, bb=4, runtime=100.0)
        b = make_job(job_id=2, nodes=8, bb=4, runtime=100.0)
        window = [make_job(job_id=9, nodes=2, runtime=50.0)]
        pool.allocate(a, 0.0)
        np.testing.assert_array_equal(
            fresh.encode(window, pool, 10.0), inc.encode(window, pool, 10.0)
        )
        # Same drain window: release a, then b takes (mostly) a's units.
        pool.release(a)
        pool.allocate(b, 20.0)
        np.testing.assert_array_equal(
            fresh.encode(window, pool, 20.0), inc.encode(window, pool, 20.0)
        )

    def test_window_shrink_restores_zero_padding(self):
        system, fresh, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        jobs = [make_job(job_id=i, nodes=2, runtime=100.0) for i in (1, 2, 3)]
        inc.encode(jobs, pool, 5.0)
        got = inc.encode(jobs[:1], pool, 5.0)
        np.testing.assert_array_equal(got, fresh.encode(jobs[:1], pool, 5.0))

    def test_shifted_window_after_start(self):
        """The §III-C transition: head job starts, slots move up."""
        system, fresh, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        jobs = [
            make_job(job_id=i, submit=10.0 * i, nodes=1 + i % 3, runtime=100.0)
            for i in range(1, 6)
        ]
        inc.encode(jobs[:4], pool, 50.0)
        pool.allocate(jobs[0], 50.0)
        shifted = jobs[1:5]
        np.testing.assert_array_equal(
            inc.encode(shifted, pool, 50.0), fresh.encode(shifted, pool, 50.0)
        )

    def test_overflow_rejected_like_fresh(self):
        _, _, inc = encoder_pair(paper=False, window=2)
        pool = ResourcePool(small_system())
        jobs = [make_job(job_id=i, nodes=1) for i in range(3)]
        with pytest.raises(ValueError, match="window"):
            inc.encode(jobs, pool, 0.0)

    def test_returns_persistent_buffer(self):
        _, _, inc = encoder_pair(paper=False)
        pool = ResourcePool(small_system())
        first = inc.encode([], pool, 0.0)
        second = inc.encode([], pool, 1.0)
        assert first is second


class TestAttachment:
    def test_attaches_lazily_and_switches_pools(self):
        system, fresh, inc = encoder_pair(paper=False)
        pool_a, pool_b = ResourcePool(system), ResourcePool(system)
        job = make_job(job_id=1, nodes=4, runtime=100.0)
        pool_a.allocate(job, 0.0)
        np.testing.assert_array_equal(
            inc.encode([], pool_a, 5.0), fresh.encode([], pool_a, 5.0)
        )
        # Switching pools must drop the old tracker and rebuild.
        np.testing.assert_array_equal(
            inc.encode([], pool_b, 5.0), fresh.encode([], pool_b, 5.0)
        )
        assert not pool_a._trackers  # unregistered on switch

    def test_mismatched_pool_layout_rejected(self):
        """Both encoders read pool vectors positionally — a pool whose
        resource order differs from the system's must be refused."""
        reordered = SystemConfig(
            resources=(ResourceSpec(BURST_BUFFER, 8), ResourceSpec(NODE, 16))
        )
        system, fresh, inc = encoder_pair(paper=False)
        with pytest.raises(ValueError, match="resource layout"):
            fresh.encode([], ResourcePool(reordered), 0.0)
        with pytest.raises(ValueError, match="resource layout"):
            inc.encode([], ResourcePool(reordered), 0.0)
        # An equal-layout pool built from a different SystemConfig object
        # is fine.
        twin = SystemConfig(
            resources=(ResourceSpec(NODE, 16), ResourceSpec(BURST_BUFFER, 8))
        )
        assert inc.encode([], ResourcePool(twin), 0.0).shape == (fresh.state_dim,)

    def test_detach_is_idempotent(self):
        system, _, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        inc.encode([], pool, 0.0)
        inc.detach()
        inc.detach()
        assert not pool._trackers

    def test_dirty_tracking_survives_reset(self):
        """pool.reset() must flag a full rebuild, not leave stale state."""
        system, fresh, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        job = make_job(job_id=1, nodes=8, bb=4, runtime=100.0, walltime=500.0)
        pool.allocate(job, 0.0)
        inc.encode([], pool, 10.0)
        pool.reset()
        tracker = inc._tracker
        assert tracker.full
        np.testing.assert_array_equal(
            inc.encode([], pool, 20.0), fresh.encode([], pool, 20.0)
        )


class TestWindowByproducts:
    def test_window_requests_and_fits(self):
        system, _, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        pool.allocate(make_job(job_id=9, nodes=12, runtime=100.0), 0.0)
        window = [
            make_job(job_id=1, nodes=10),  # does not fit (4 free)
            make_job(job_id=2, nodes=2, bb=1),  # fits
        ]
        state, reqs, fits = inc.encode_decision(window, pool, 0.0)
        assert state is inc.encode(window, pool, 0.0)
        np.testing.assert_array_equal(reqs, [[10.0, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(fits, [False, True])

    def test_views_reject_overlong_requests(self):
        system, _, inc = encoder_pair(paper=False)
        pool = ResourcePool(system)
        inc.encode([make_job(job_id=1, nodes=1)], pool, 0.0)
        with pytest.raises(ValueError, match="populated"):
            inc.window_requests(2)
        with pytest.raises(ValueError, match="populated"):
            inc.window_fits(2, pool)

    def test_fits_in_paper_layout_mode(self):
        system, _, inc = encoder_pair(paper=True)
        pool = ResourcePool(system)
        pool.allocate(make_job(job_id=9, nodes=15, runtime=100.0), 0.0)
        window = [make_job(job_id=1, nodes=4), make_job(job_id=2, nodes=1)]
        _, _, fits = inc.encode_decision(window, pool, 0.0)
        np.testing.assert_array_equal(fits, [False, True])


class TestDirtyTracker:
    def test_marks_and_drains_in_order(self):
        system = small_system()
        pool = ResourcePool(system)
        tracker = pool.register_tracker()
        assert tracker.drain() is None  # fresh tracker: full rebuild
        job = make_job(job_id=1, nodes=3, bb=2, runtime=100.0, walltime=500.0)
        pool.allocate(job, 10.0)
        pool.release(job)
        dirty = tracker.drain()
        idx_a, busy_a, est_a = dirty[NODE][0]
        idx_r, busy_r, est_r = dirty[NODE][1]
        assert busy_a and est_a == 510.0 and idx_a.size == 3
        assert not busy_r and est_r == 0.0
        np.testing.assert_array_equal(idx_a, idx_r)
        assert tracker.drain() == {}  # drained clean

    def test_overflow_collapses_to_full(self):
        system = small_system()
        pool = ResourcePool(system)
        tracker = pool.register_tracker()
        tracker.drain()
        # The limit is max(64, total // 2); 24 total units → 64. Churn
        # one job until the accumulated count crosses it.
        job = make_job(job_id=1, nodes=16, bb=8, runtime=100.0)
        for _ in range(3):
            pool.allocate(job, 0.0)
            pool.release(job)
        assert tracker.full

    def test_unregistered_tracker_stops_updating(self):
        system = small_system()
        pool = ResourcePool(system)
        tracker = pool.register_tracker()
        tracker.drain()
        pool.unregister_tracker(tracker)
        pool.allocate(make_job(job_id=1, nodes=2, runtime=50.0), 0.0)
        assert tracker.drain() == {}
        pool.unregister_tracker(tracker)  # unknown tracker: no-op


class _FreshEncodes:
    """Test-only stand-in for a scheduler's ``_inc_encoder``: the
    fresh-encode path the incremental encoder replaced (a new state
    vector from ``StateEncoder.encode`` per decision)."""

    def __init__(self, encoder: StateEncoder) -> None:
        self.encoder = encoder

    def encode_decision(self, window, pool, now):
        return self.encoder.encode(window, pool, now), None, None


class TestMRSchEquivalence:
    def test_incremental_scheduler_matches_reference(self, tiny_system, tiny_trace):
        """The shipped fast path changes nothing about MRSch decisions."""
        from repro.core.mrsch import MRSchScheduler

        def run(incremental: bool):
            sched = MRSchScheduler(tiny_system, window_size=4, seed=11)
            if not incremental:
                sched._inc_encoder = _FreshEncodes(sched.encoder)
            jobs = [
                make_job(
                    job_id=j.job_id,
                    submit=j.submit_time,
                    runtime=j.runtime,
                    walltime=j.walltime,
                    nodes=j.requests.get(NODE, 0),
                    bb=j.requests.get(BURST_BUFFER, 0),
                )
                for j in tiny_trace
            ]
            result = Simulator(tiny_system, sched).run(jobs)
            return [(j.job_id, j.start_time, j.end_time) for j in result.jobs]

        assert run(True) == run(False)
