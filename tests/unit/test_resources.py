"""Tests for ResourceSpec, SystemConfig and ResourcePool (with
hypothesis property tests on pool invariants)."""

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
from tests.conftest import make_job


class TestSpecs:
    def test_rejects_zero_units(self):
        with pytest.raises(ValueError):
            ResourceSpec("x", 0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ResourceSpec("", 4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SystemConfig(resources=(ResourceSpec("a", 1), ResourceSpec("a", 2)))

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(resources=())

    def test_theta_scale(self):
        theta = SystemConfig.theta()
        assert theta.capacity(NODE) == 4392
        assert theta.capacity(BURST_BUFFER) == 1290

    def test_with_power_appends(self, tiny_system):
        powered = tiny_system.with_power(50)
        assert powered.names == [NODE, BURST_BUFFER, "power"]
        assert powered.capacity("power") == 50

    def test_capacities_vector_is_built_once_and_read_only(self, tiny_system):
        powered = tiny_system.with_power(50)
        caps = powered.capacities
        assert caps is powered.capacities
        assert caps.dtype == float and not caps.flags.writeable
        np.testing.assert_array_equal(caps, [powered.capacity(n) for n in powered.names])
        assert powered == tiny_system.with_power(50)  # not part of identity

    def test_unknown_capacity_raises(self, tiny_system):
        with pytest.raises(KeyError):
            tiny_system.capacity("gpu")

    def test_validate_job(self, tiny_system):
        tiny_system.validate_job(make_job(nodes=16, bb=8))
        with pytest.raises(ValueError, match="capacity"):
            tiny_system.validate_job(make_job(nodes=17))
        with pytest.raises(ValueError, match="unknown resource"):
            tiny_system.validate_job(make_job(nodes=1, gpu=1))


class TestPoolBasics:
    def test_initially_all_free(self, tiny_system):
        pool = ResourcePool(tiny_system)
        assert pool.free_units(NODE) == 16
        assert pool.utilization(NODE) == 0.0

    def test_allocate_release_cycle(self, tiny_system):
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=5, bb=2, walltime=500.0, runtime=500.0)
        pool.allocate(job, now=10.0)
        assert pool.free_units(NODE) == 11
        assert pool.free_units(BURST_BUFFER) == 6
        assert pool.utilization(NODE) == pytest.approx(5 / 16)
        pool.release(job)
        assert pool.free_units(NODE) == 16
        assert pool.busy_units(BURST_BUFFER) == 0

    def test_zero_request_resource_untouched(self, tiny_system):
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=3, bb=0)
        pool.allocate(job, now=0.0)
        assert pool.free_units(BURST_BUFFER) == 8
        assert BURST_BUFFER not in pool.snapshot()["allocations"][job.job_id]

    def test_allocation_is_compact_and_owns_its_memory(self, tiny_system):
        """The pool's record of a grant holds index arrays, not a Python
        int per unit — and not views, which would pin the full
        free-index scan each grant was sliced from for as long as the
        job runs."""
        pool = ResourcePool(tiny_system)
        first, second = make_job(job_id=1, nodes=3, bb=2), make_job(job_id=2, nodes=4)
        pool.allocate(first, now=0.0)
        pool.allocate(second, now=0.0)
        held = pool.snapshot()["allocations"]
        assert held[1][NODE].tolist() == [0, 1, 2]
        assert held[1][BURST_BUFFER].tolist() == [0, 1]
        assert held[2][NODE].tolist() == [3, 4, 5, 6]
        for grant in pool._allocations.values():
            for units in grant.values():
                assert isinstance(units, np.ndarray) and units.base is None
        pool.release(first)
        assert list(pool.snapshot()["allocations"]) == [2]
        assert not hasattr(first, "allocation")  # the pool's record is the only one

    def test_double_allocate_rejected(self, tiny_system):
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=1)
        pool.allocate(job, now=0.0)
        with pytest.raises(RuntimeError, match="already allocated"):
            pool.allocate(job, now=1.0)

    def test_allocate_without_fit_rejected(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=16), now=0.0)
        with pytest.raises(RuntimeError, match="does not fit"):
            pool.allocate(make_job(job_id=2, nodes=1), now=0.0)

    def test_release_unallocated_rejected(self, tiny_system):
        pool = ResourcePool(tiny_system)
        with pytest.raises(RuntimeError, match="no allocation"):
            pool.release(make_job())

    def test_reset(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(nodes=4), now=0.0)
        pool.reset()
        assert pool.free_units(NODE) == 16
        assert pool.running_jobs() == []

    def test_can_fit(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=10, bb=8), now=0.0)
        assert pool.can_fit(make_job(job_id=2, nodes=6, bb=0))
        assert not pool.can_fit(make_job(job_id=3, nodes=6, bb=1))
        assert not pool.can_fit(make_job(job_id=4, nodes=7, bb=0))


class TestUtilizations:
    """``utilizations()``: busy / capacity per resource, config order."""

    def test_an_idle_pool_reads_zero_for_every_resource(self, tiny_system):
        util = ResourcePool(tiny_system).utilizations()
        assert util.shape == (tiny_system.n_resources,)
        assert util.tolist() == [0.0, 0.0]

    def test_each_resource_reads_busy_over_capacity(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=4, bb=2), now=0.0)
        pool.allocate(make_job(job_id=2, nodes=2, bb=0), now=0.0)
        assert pool.utilizations().tolist() == [6 / 16, 2 / 8]
        for i, name in enumerate(tiny_system.names):
            assert pool.utilizations()[i] == pool.utilization(name)

    def test_a_full_pool_reads_one_and_a_release_reads_zero_again(self, tiny_system):
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=16, bb=8)
        pool.allocate(job, now=0.0)
        assert pool.utilizations().tolist() == [1.0, 1.0]
        pool.release(job)
        assert pool.utilizations().tolist() == [0.0, 0.0]

    def test_restore_brings_back_the_snapshotted_utilizations(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=8, bb=4), now=0.0)
        snap = pool.snapshot()
        pool.allocate(make_job(job_id=2, nodes=8, bb=4), now=1.0)
        assert pool.utilizations().tolist() == [1.0, 1.0]
        pool.restore(snap)
        assert pool.utilizations().tolist() == [0.5, 0.5]


class TestUnitState:
    def test_free_units_encode_zero(self, tiny_system):
        pool = ResourcePool(tiny_system)
        avail, ttf = pool.unit_state(NODE, now=0.0)
        np.testing.assert_array_equal(avail, np.ones(16))
        np.testing.assert_array_equal(ttf, np.zeros(16))

    def test_busy_units_show_walltime_remaining(self, tiny_system):
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=4, runtime=100.0, walltime=1000.0)
        pool.allocate(job, now=50.0)
        avail, ttf = pool.unit_state(NODE, now=250.0)
        assert avail.sum() == 12
        busy_ttf = ttf[avail == 0]
        # est free = 50 + 1000 = 1050; remaining at t=250 is 800.
        np.testing.assert_allclose(busy_ttf, 800.0)

    def test_overdue_units_clamp_to_zero(self, tiny_system):
        """A job running past its estimate shows 0 time-to-free, not negative."""
        pool = ResourcePool(tiny_system)
        job = make_job(nodes=2, runtime=100.0, walltime=100.0)
        pool.allocate(job, now=0.0)
        _, ttf = pool.unit_state(NODE, now=500.0)
        assert np.all(ttf >= 0.0)


class TestEarliestFit:
    def test_empty_pool_fits_now(self, tiny_system):
        pool = ResourcePool(tiny_system)
        assert pool.earliest_fit_time(make_job(nodes=16, bb=8), now=42.0) == 42.0

    def test_waits_for_kth_unit(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=10, walltime=1000.0, runtime=1000.0), now=0.0)
        pool.allocate(make_job(job_id=2, nodes=6, walltime=500.0, runtime=500.0), now=0.0)
        # 12 nodes requested: all 6 short-job nodes free at 500, need 6
        # more from the 10 freeing at 1000.
        assert pool.earliest_fit_time(make_job(job_id=3, nodes=12), now=0.0) == 1000.0
        # 6 nodes: satisfied when the short job ends.
        assert pool.earliest_fit_time(make_job(job_id=4, nodes=6), now=0.0) == 500.0

    def test_max_over_resources(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=16, walltime=100.0, runtime=100.0), now=0.0)
        pool.allocate(make_job(job_id=2, nodes=0, bb=8, walltime=900.0, runtime=900.0), now=0.0)
        job = make_job(job_id=3, nodes=1, bb=1)
        assert pool.earliest_fit_time(job, now=0.0) == 900.0

    def test_request_exceeding_capacity_raises(self, tiny_system):
        pool = ResourcePool(tiny_system)
        with pytest.raises(ValueError):
            pool.earliest_fit_time(make_job(nodes=99), now=0.0)

    def test_free_units_at(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=10, walltime=300.0, runtime=300.0), now=0.0)
        assert pool.free_units_at(NODE, when=0.0, now=0.0) == 6
        assert pool.free_units_at(NODE, when=300.0, now=0.0) == 16

    def test_free_vector_at_is_free_units_at_per_resource(self, tiny_system):
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=1, nodes=10, bb=3, runtime=300.0), now=0.0)
        pool.allocate(make_job(job_id=2, nodes=2, bb=4, runtime=700.0), now=50.0)
        assert pool.names == tuple(tiny_system.names)
        for when, now in [(0.0, 0.0), (300.0, 60.0), (749.9, 60.0), (750.0, 60.0),
                          (100.0, 200.0)]:  # the last one looks into the past
            expected = [pool.free_units_at(n, when, now) for n in pool.names]
            got = pool.free_vector_at(when, now)
            assert got.dtype == np.float64 and got.tolist() == expected
        assert pool.free_vector_at(1e9, 0.0) is not pool.free_vector()  # caller-owned


# -- property tests -----------------------------------------------------------

job_requests = st.tuples(st.integers(1, 8), st.integers(0, 4))


@settings(max_examples=50, deadline=None)
@given(st.lists(job_requests, min_size=1, max_size=20))
def test_pool_conservation_property(reqs):
    """Allocate greedily then release everything: pool returns to initial
    state and free+busy always equals capacity."""
    system = SystemConfig(
        resources=(ResourceSpec(NODE, 8), ResourceSpec(BURST_BUFFER, 4))
    )
    pool = ResourcePool(system)
    allocated = []
    for i, (nodes, bb) in enumerate(reqs):
        job = make_job(job_id=i, nodes=min(nodes, 8), bb=min(bb, 4), runtime=10.0)
        if pool.can_fit(job):
            pool.allocate(job, now=0.0)
            allocated.append(job)
        for name in (NODE, BURST_BUFFER):
            assert pool.free_units(name) + pool.busy_units(name) == system.capacity(name)
    for job in allocated:
        pool.release(job)
    assert pool.free_units(NODE) == 8
    assert pool.free_units(BURST_BUFFER) == 4
    assert pool.running_jobs() == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.floats(1.0, 1e4), st.floats(0.0, 1e4)),
        min_size=1,
        max_size=10,
    )
)
def test_earliest_fit_never_before_now(jobs_data):
    system = SystemConfig(resources=(ResourceSpec(NODE, 8),))
    pool = ResourcePool(system)
    now = 0.0
    for i, (nodes, walltime, gap) in enumerate(jobs_data):
        job = make_job(job_id=i, nodes=nodes, runtime=walltime, walltime=walltime, bb=0)
        job.requests.pop(BURST_BUFFER, None)
        if pool.can_fit(job):
            pool.allocate(job, now=now)
        probe = make_job(job_id=1000 + i, nodes=nodes, bb=0)
        probe.requests.pop(BURST_BUFFER, None)
        t = pool.earliest_fit_time(probe, now=now)
        assert t >= now
        now += gap
