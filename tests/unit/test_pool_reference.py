"""Property test pinning the optimized ResourcePool to a naive reference.

The pool's incremental accounting (free counters, the sorted grant
times behind ``earliest_fit_time`` / ``free_units_at``) must be
*bit-identical* to the straightforward implementation that recomputes
everything from the raw per-unit arrays, read through ``unit_arrays()``
(which builds them from the pool's mutation log). The reference below
is exactly that seed-era implementation, retained here as executable
documentation of the contract; hypothesis drives both through
randomized allocate/release/query sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import BURST_BUFFER, NODE, ResourcePool, ResourceSpec, SystemConfig
from tests.conftest import make_job


class NaiveReferencePool:
    """Order-statistic queries recomputed from scratch on every call.

    Operates on the *same* per-unit busy/est-free state as the optimized
    pool (read straight out of it), so any divergence is attributable to
    the optimized query paths alone.
    """

    def __init__(self, pool: ResourcePool) -> None:
        self.pool = pool

    def can_fit(self, job) -> bool:
        return all(
            (~self.pool.unit_arrays(name)[0]).sum() >= amount
            for name, amount in job.requests.items()
            if amount > 0
        )

    def utilizations(self) -> np.ndarray:
        caps = np.array(
            [self.pool.config.capacity(n) for n in self.pool.config.names],
            dtype=float,
        )
        busy = np.array(
            [self.pool.unit_arrays(n)[0].sum() for n in self.pool.config.names],
            dtype=float,
        )
        return busy / caps

    def earliest_fit_time(self, job, now: float) -> float:
        t = now
        for name, amount in job.requests.items():
            if amount <= 0:
                continue
            busy, est_free = self.pool.unit_arrays(name)
            free_times = np.where(busy, est_free, now)
            kth = np.partition(free_times, amount - 1)[amount - 1]
            t = max(t, float(kth))
        return t

    def free_units_at(self, name: str, when: float, now: float) -> int:
        busy, est_free = self.pool.unit_arrays(name)
        free_times = np.where(busy, est_free, now)
        return int((free_times <= when).sum())


ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "release", "tick"]),
        st.integers(1, 8),            # nodes
        st.integers(0, 4),            # bb
        st.floats(1.0, 5000.0),       # walltime
        st.floats(0.0, 800.0),        # time advance / query offset
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(ops)
def test_optimized_pool_bit_identical_to_naive_reference(op_list):
    system = SystemConfig(
        resources=(ResourceSpec(NODE, 8), ResourceSpec(BURST_BUFFER, 4))
    )
    pool = ResourcePool(system)
    ref = NaiveReferencePool(pool)
    now = 0.0
    active = []
    next_id = 0
    for kind, nodes, bb, walltime, advance in op_list:
        now += advance
        if kind == "alloc":
            job = make_job(
                job_id=next_id, nodes=nodes, bb=bb,
                runtime=walltime, walltime=walltime,
            )
            next_id += 1
            assert pool.can_fit(job) == ref.can_fit(job)
            if pool.can_fit(job):
                pool.allocate(job, now)
                active.append(job)
        elif kind == "release" and active:
            pool.release(active.pop(nodes % len(active)))
        # Query cross-check after every operation — the sorted grant
        # times are exercised in every state the sequence can reach.
        probe = make_job(job_id=99_999, nodes=nodes, bb=bb, runtime=1.0)
        assert pool.can_fit(probe) == ref.can_fit(probe)
        got = pool.earliest_fit_time(probe, now)
        want = ref.earliest_fit_time(probe, now)
        assert got == want, f"earliest_fit_time {got!r} != naive {want!r}"
        for name in system.names:
            when = now + advance
            assert pool.free_units_at(name, when, now) == ref.free_units_at(
                name, when, now
            )
            # Also probe *before* now (free units still count as free).
            assert pool.free_units_at(name, now - 1.0, now) == ref.free_units_at(
                name, now - 1.0, now
            )
        np.testing.assert_array_equal(pool.utilizations(), ref.utilizations())
        np.testing.assert_array_equal(
            pool.free_vector(),
            [pool.free_units(n) for n in system.names],
        )


@settings(max_examples=30, deadline=None)
@given(ops)
def test_repeated_queries_hit_the_sorted_cache_consistently(op_list):
    """Back-to-back identical queries (the second after nothing changed
    the sorted grant times) must agree with each other and with the
    naive answer."""
    system = SystemConfig(resources=(ResourceSpec(NODE, 8),))
    pool = ResourcePool(system)
    ref = NaiveReferencePool(pool)
    now = 0.0
    for i, (kind, nodes, _, walltime, advance) in enumerate(op_list):
        now += advance
        job = make_job(job_id=i, nodes=nodes, runtime=walltime, walltime=walltime, bb=0)
        job.requests.pop(BURST_BUFFER, None)
        if kind == "alloc" and pool.can_fit(job):
            pool.allocate(job, now)
        probe = make_job(job_id=10_000 + i, nodes=nodes, bb=0, runtime=1.0)
        probe.requests.pop(BURST_BUFFER, None)
        first = pool.earliest_fit_time(probe, now)
        second = pool.earliest_fit_time(probe, now)
        assert first == second == ref.earliest_fit_time(probe, now)
