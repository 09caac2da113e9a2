"""Tests for synthetic Darshan record generation and BB extraction."""

import numpy as np
import pytest

from repro.workload.darshan import (
    DarshanRecord,
    extract_bb_requests,
    generate_darshan_records,
)
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace
from tests.conftest import make_job


@pytest.fixture(scope="module")
def big_trace():
    return generate_theta_trace(ThetaTraceConfig(n_jobs=4000), seed=11)


class TestRecordGeneration:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            DarshanRecord(job_id=1, bytes_moved_gb=-1.0)

    def test_fraction_with_records(self, big_trace):
        records = generate_darshan_records(big_trace, seed=0)
        frac = len(records) / len(big_trace)
        assert 0.35 < frac < 0.45  # paper: 40%

    def test_fraction_over_1gb(self, big_trace):
        """Paper §IV-A: 17.18% of all jobs move more than 1 GB."""
        records = generate_darshan_records(big_trace, seed=0)
        over = sum(1 for r in records if r.bytes_moved_gb > 1.0)
        frac = over / len(big_trace)
        assert 0.12 < frac < 0.23

    def test_volume_cap(self, big_trace):
        records = generate_darshan_records(big_trace, max_volume_gb=100.0, seed=0)
        assert all(r.bytes_moved_gb <= 100.0 for r in records)

    def test_empty_jobs(self):
        assert generate_darshan_records([], seed=0) == []

    def test_invalid_probabilities(self, big_trace):
        with pytest.raises(ValueError):
            generate_darshan_records(big_trace, p_has_record=1.5)
        with pytest.raises(ValueError):
            generate_darshan_records(big_trace, p_has_record=0.1, p_over_1gb=0.2)

    def test_quantile_edges_follow_the_normal_limits(self, big_trace):
        """p_over_1gb = 0 puts the median at -inf (every volume 0) and
        p_over_1gb = p_has_record at +inf (every volume at the cap)."""
        none_over = generate_darshan_records(big_trace, p_over_1gb=0.0, seed=0)
        assert none_over and all(r.bytes_moved_gb == 0.0 for r in none_over)
        all_over = generate_darshan_records(
            big_trace, p_has_record=0.4, p_over_1gb=0.4,
            max_volume_gb=100.0, seed=0,
        )
        assert all_over and all(r.bytes_moved_gb == 100.0 for r in all_over)
        # The record draw itself is untouched by the quantile.
        assert [r.job_id for r in none_over] == [r.job_id for r in all_over]

    @pytest.mark.parametrize("p", [
        0.1718 / 0.40, 0.074, 0.075, 0.925, 0.926, 1e-11, 2e-11, 1e-300, 1 - 1e-12,
    ] + [i / 200 for i in range(1, 200)])
    def test_quantile_is_normal_dist_inv_cdf_bit_for_bit(self, p):
        """The default conditional share, either side of the kernel's
        branch edges (``|p - 0.5| = 0.425``, and ``p ≈ 1.4e-11`` in the
        tails), both far tails and a grid over (0, 1)."""
        from statistics import NormalDist

        from repro.workload.darshan import _normal_quantile

        assert _normal_quantile(p).hex() == NormalDist().inv_cdf(p).hex()

    def test_node_scaling_effect(self):
        """With node scaling on, volume correlates with node count."""
        jobs = [make_job(job_id=i, nodes=1 if i < 500 else 64) for i in range(1000)]
        records = generate_darshan_records(jobs, io_scales_with_nodes=True, seed=1)
        small = [r.bytes_moved_gb for r in records if r.job_id < 500]
        large = [r.bytes_moved_gb for r in records if r.job_id >= 500]
        assert np.median(large) > np.median(small)


class TestExtraction:
    def test_units_ceiling(self):
        jobs = [make_job(job_id=1)]
        records = [DarshanRecord(job_id=1, bytes_moved_gb=1500.0)]
        out = extract_bb_requests(jobs, records, bb_unit_gb=1024.0)
        assert out[0].request("burst_buffer") == 2  # ceil(1500/1024)

    def test_below_threshold_gets_zero(self):
        jobs = [make_job(job_id=1)]
        records = [DarshanRecord(job_id=1, bytes_moved_gb=0.5)]
        out = extract_bb_requests(jobs, records, min_volume_gb=1.0)
        assert out[0].request("burst_buffer") == 0

    def test_no_record_gets_zero(self):
        out = extract_bb_requests([make_job(job_id=7)], [])
        assert out[0].request("burst_buffer") == 0

    def test_max_units_cap(self):
        jobs = [make_job(job_id=1)]
        records = [DarshanRecord(job_id=1, bytes_moved_gb=1e6)]
        out = extract_bb_requests(jobs, records, bb_unit_gb=1024.0, max_units=10)
        assert out[0].request("burst_buffer") == 10

    def test_inputs_not_mutated(self):
        job = make_job(job_id=1)
        extract_bb_requests([job], [DarshanRecord(job_id=1, bytes_moved_gb=5000.0)])
        assert "burst_buffer" not in job.requests or job.requests["burst_buffer"] == 0

    def test_invalid_unit(self):
        with pytest.raises(ValueError):
            extract_bb_requests([], [], bb_unit_gb=0.0)


def test_scenario_run_needs_no_scipy():
    """numpy is the only declared runtime dependency: a trace build
    through the public API must not reach for scipy."""
    import subprocess
    import sys

    script = (
        "import sys, repro.api as api\n"
        "result = api.run_scenario({'methods': ['heuristic'], "
        "'workloads': ['S1', 'S2'], 'train': False, "
        "'system': {'name': 'mini_theta', 'nodes': 32, 'bb_units': 16}, "
        "'config': {'n_jobs': 15, 'window_size': 5}, 'replications': 2})\n"
        "assert len(result.results) == 2, result.results\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
