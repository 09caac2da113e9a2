"""``ResourcePool.allocate`` grants the lowest-index free units.

The grant scans only the prefix ``busy[: busy_count + amount]`` of each
resource's unit array; the oracle here is the full scan
``np.flatnonzero(~busy)[:amount]`` it replaced, held to it over random
allocate/release histories that fragment the free space.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import BURST_BUFFER, NODE, ResourcePool, ResourceSpec, SystemConfig
from tests.conftest import make_job

SYSTEM = SystemConfig(resources=(ResourceSpec(NODE, 48), ResourceSpec(BURST_BUFFER, 20)))


def full_scan_grant(pool: ResourcePool, name: str, amount: int) -> np.ndarray:
    busy, _ = pool.unit_arrays(name)
    return np.flatnonzero(~busy)[:amount]


def granted(pool: ResourcePool, before: dict[str, np.ndarray], name: str) -> np.ndarray:
    busy, _ = pool.unit_arrays(name)
    return np.flatnonzero(busy & ~before[name])


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.booleans(),  # allocate (True) or release (False)
            st.integers(0, 48),
            st.integers(0, 20),
            st.integers(0, 10**6),  # which running job to release
        ),
        min_size=1,
        max_size=60,
    )
)
def test_every_grant_equals_the_full_scan(steps):
    pool = ResourcePool(SYSTEM)
    running = []
    for job_id, (allocate, nodes, bb, pick) in enumerate(steps):
        if allocate or not running:
            job = make_job(job_id=job_id, nodes=nodes, bb=bb)
            if not pool.can_fit(job):
                continue
            expected = {
                name: full_scan_grant(pool, name, job.request(name))
                for name in SYSTEM.names
            }
            before = {name: pool.unit_arrays(name)[0].copy() for name in SYSTEM.names}
            pool.allocate(job, now=float(job_id))
            for name in SYSTEM.names:
                np.testing.assert_array_equal(granted(pool, before, name), expected[name])
            running.append(job)
        else:
            pool.release(running.pop(pick % len(running)))


def test_a_grant_that_fills_the_machine_takes_every_free_unit():
    """Saturating grant: the prefix is the whole array, as before."""
    pool = ResourcePool(SYSTEM)
    holes = [make_job(job_id=i, nodes=8, bb=2) for i in range(6)]
    for job in holes:
        pool.allocate(job, now=0.0)
    for job in holes[::2]:
        pool.release(job)
    rest = make_job(job_id=99, nodes=pool.free_units(NODE), bb=pool.free_units(BURST_BUFFER))
    expected = {name: full_scan_grant(pool, name, rest.request(name)) for name in SYSTEM.names}
    before = {name: pool.unit_arrays(name)[0].copy() for name in SYSTEM.names}
    pool.allocate(rest, now=1.0)
    for name in SYSTEM.names:
        assert pool.unit_arrays(name)[0].all()
        np.testing.assert_array_equal(granted(pool, before, name), expected[name])
