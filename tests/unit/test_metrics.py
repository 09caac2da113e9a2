"""Tests for the scheduling-quality metrics (§IV-B)."""

import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import NODE, POWER, ResourceSpec, SystemConfig
from repro.sim.metrics import _p95, compute_metrics
from tests.conftest import make_job


def finished_job(job_id, submit, start, runtime, nodes, bb=0, **extra):
    job = make_job(job_id=job_id, submit=submit, runtime=runtime, nodes=nodes, bb=bb, **extra)
    job.start_time = start
    job.end_time = start + runtime
    return job


class TestComputeMetrics:
    def test_empty_jobs(self, tiny_system):
        report = compute_metrics([], tiny_system)
        assert report.n_jobs == 0
        assert report.node_util == 0.0

    def test_single_job_full_utilization(self, tiny_system):
        job = finished_job(1, submit=0.0, start=0.0, runtime=100.0, nodes=16, bb=8)
        report = compute_metrics([job], tiny_system)
        assert report.node_util == pytest.approx(1.0)
        assert report.bb_util == pytest.approx(1.0)
        assert report.avg_wait == 0.0
        assert report.avg_slowdown == 1.0
        assert report.makespan == pytest.approx(100.0)

    def test_hand_computed_two_jobs(self, tiny_system):
        # span = 0 .. 300; node-seconds used = 8*100 + 4*200 = 1600
        jobs = [
            finished_job(1, submit=0.0, start=0.0, runtime=100.0, nodes=8),
            finished_job(2, submit=0.0, start=100.0, runtime=200.0, nodes=4),
        ]
        report = compute_metrics(jobs, tiny_system)
        assert report.node_util == pytest.approx(1600 / (16 * 300))
        assert report.avg_wait == pytest.approx(50.0)
        # slowdowns: 1.0 and (100+200)/200 = 1.5
        assert report.avg_slowdown == pytest.approx(1.25)
        assert report.max_wait == 100.0

    def test_unfinished_jobs_excluded(self, tiny_system):
        done = finished_job(1, submit=0.0, start=0.0, runtime=100.0, nodes=4)
        pending = make_job(job_id=2, nodes=4)
        report = compute_metrics([done, pending], tiny_system)
        assert report.n_jobs == 1

    def test_power_metric(self):
        system = SystemConfig(
            resources=(ResourceSpec(NODE, 8), ResourceSpec(POWER, 100))
        )
        job = finished_job(1, submit=0.0, start=0.0, runtime=100.0, nodes=4, power=50)
        report = compute_metrics([job], system)
        assert report.avg_power_units == pytest.approx(50.0)
        assert "avg_power_units" in report.as_dict()

    def test_as_dict_keys(self, tiny_system):
        job = finished_job(1, submit=0.0, start=0.0, runtime=10.0, nodes=1)
        d = compute_metrics([job], tiny_system).as_dict()
        assert set(d) == {"node_util", "bb_util", "avg_wait_h", "avg_slowdown"}

    def test_wait_hours_conversion(self, tiny_system):
        job = finished_job(1, submit=0.0, start=7200.0, runtime=100.0, nodes=1)
        report = compute_metrics([job], tiny_system)
        assert report.avg_wait_hours == pytest.approx(2.0)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)
_FINITE = st.one_of(_MAGNITUDE, _MAGNITUDE.map(operator.neg), st.just(0.0))


class TestP95:
    """``compute_metrics`` takes its p95 from ``_p95``, which must equal
    ``np.percentile(x, 95)`` bit for bit (numpy imports ``numpy.ma`` to
    compute that, and a cold run should not pay for it)."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(_FINITE, min_size=1, max_size=500),
            st.lists(st.integers(0, 3).map(float), min_size=1, max_size=500),  # ties
            st.lists(st.one_of(_FINITE, st.just(math.nan)), min_size=1, max_size=500),
        )
    )
    def test_equals_numpy_percentile(self, values):
        x = np.array(values)
        assert bits(_p95(x.copy())) == bits(float(np.percentile(x, 95)))

    @pytest.mark.parametrize("n", [1, 2, 11, 12, 21])  # t >= 0.5, t < 0.5, t == 0
    def test_both_branches_of_numpys_lerp(self, n):
        x = np.random.default_rng(n).lognormal(0.0, 2.0, n)
        assert bits(_p95(x.copy())) == bits(float(np.percentile(x, 95)))

    def test_does_not_reorder_its_input(self):
        x = np.array([3.0, 1.0, 2.0])
        _p95(x)
        assert x.tolist() == [3.0, 1.0, 2.0]
