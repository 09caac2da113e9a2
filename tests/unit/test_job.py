"""Tests for the Job model."""

import pytest

from repro.workload.job import Job
from tests.conftest import make_job


class TestValidation:
    def test_rejects_nonpositive_runtime(self):
        with pytest.raises(ValueError, match="runtime"):
            make_job(runtime=0.0)

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError, match="submit"):
            make_job(submit=-1.0)

    def test_rejects_negative_request(self):
        with pytest.raises(ValueError, match="negative request"):
            make_job(nodes=-1)

    @pytest.mark.parametrize("field", ["submit_time", "runtime", "walltime"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_times(self, field, value):
        times = {"submit_time": 0.0, "runtime": 100.0, "walltime": 200.0, field: value}
        with pytest.raises(ValueError, match=field.split("_")[0]):
            Job(job_id=1, requests={"node": 1}, **times)

    def test_walltime_clamped_to_runtime(self):
        job = make_job(runtime=100.0, walltime=50.0)
        assert job.walltime == 100.0


class TestLifecycle:
    def test_fresh_job_not_started(self):
        job = make_job()
        assert not job.started and not job.finished

    def test_reset_clears_state(self):
        job = make_job()
        job.start_time = 5.0
        job.end_time = 10.0
        job.reset()
        assert job.start_time is None
        assert job.end_time is None

    def test_copy_shares_statics_but_not_state(self):
        job = make_job(nodes=4, bb=2)
        job.start_time = 9.0
        dup = job.copy()
        assert dup.requests == job.requests
        assert dup.requests is not job.requests
        assert dup.start_time is None


class TestMetrics:
    def test_wait_time(self):
        job = make_job(submit=10.0, runtime=100.0)
        job.start_time = 40.0
        assert job.wait_time == 30.0

    def test_wait_requires_start(self):
        with pytest.raises(RuntimeError):
            _ = make_job().wait_time

    def test_slowdown_one_when_no_wait(self):
        job = make_job(submit=0.0, runtime=100.0)
        job.start_time = 0.0
        assert job.slowdown == 1.0

    def test_slowdown_formula(self):
        job = make_job(submit=0.0, runtime=100.0)
        job.start_time = 300.0
        assert job.response_time == 400.0
        assert job.slowdown == 4.0

    def test_request_defaults_to_zero(self):
        job = make_job(nodes=3)
        assert job.request("nonexistent") == 0
        assert job.request("node") == 3
