"""Tests for the Theta-like trace generator."""

import numpy as np
import pytest

from repro.cluster.resources import NODE
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace


class TestConfigValidation:
    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            ThetaTraceConfig(total_nodes=0)

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            ThetaTraceConfig(n_jobs=-1)

    def test_rejects_bad_interarrival(self):
        with pytest.raises(ValueError):
            ThetaTraceConfig(mean_interarrival=0.0)

    def test_rejects_bad_runtime_bounds(self):
        with pytest.raises(ValueError):
            ThetaTraceConfig(min_runtime=100.0, max_runtime=10.0)

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            ThetaTraceConfig(hourly_profile=np.ones(5))

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -5.0])
    def test_rejects_non_finite_interarrival(self, value):
        with pytest.raises(ValueError, match="mean_interarrival"):
            ThetaTraceConfig(mean_interarrival=value)

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_weekend_factor(self, value):
        with pytest.raises(ValueError, match="weekend_factor"):
            ThetaTraceConfig(weekend_factor=value)

    @pytest.mark.parametrize(
        "profile",
        [
            np.r_[np.ones(23), np.nan],
            np.r_[np.ones(23), np.inf],
            np.r_[np.ones(23), -1.0],
            np.zeros(24),
        ],
        ids=["nan", "inf", "negative", "all-zero"],
    )
    def test_rejects_malformed_profile_values(self, profile):
        with pytest.raises(ValueError, match="hourly_profile"):
            ThetaTraceConfig(hourly_profile=profile)


class TestWeekendFactor:
    @staticmethod
    def _weekend_to_weekday_rate(factor: float) -> float:
        """Arrivals per weekend hour over arrivals per weekday hour, on
        a flat diurnal profile, counted over whole weeks only."""
        cfg = ThetaTraceConfig(
            n_jobs=20_000, hourly_profile=np.ones(24), weekend_factor=factor
        )
        t = np.array([job.submit_time for job in generate_theta_trace(cfg, seed=8)])
        week = 7 * 86400.0
        t = t[t < (t[-1] // week) * week]
        weekend = (t // 86400) % 7 >= 5
        return (weekend.sum() / 48) / ((~weekend).sum() / 120)

    def test_factor_above_one_raises_the_weekend_rate(self):
        """The thinning bound must cover the weekend intensity; bounded
        by the weekday peak, a factor of 2 read as about 1."""
        assert 1.8 <= self._weekend_to_weekday_rate(2.0) <= 2.2

    def test_factor_below_one_lowers_it(self):
        assert 0.5 <= self._weekend_to_weekday_rate(0.6) <= 0.7


class TestGeneration:
    def test_deterministic_under_seed(self):
        cfg = ThetaTraceConfig(n_jobs=50)
        a = generate_theta_trace(cfg, seed=9)
        b = generate_theta_trace(cfg, seed=9)
        assert [(j.submit_time, j.runtime, j.requests) for j in a] == [
            (j.submit_time, j.runtime, j.requests) for j in b
        ]

    def test_different_seeds_differ(self):
        cfg = ThetaTraceConfig(n_jobs=50)
        a = generate_theta_trace(cfg, seed=1)
        b = generate_theta_trace(cfg, seed=2)
        assert any(x.runtime != y.runtime for x, y in zip(a, b))

    def test_empty_trace(self):
        assert generate_theta_trace(ThetaTraceConfig(n_jobs=0), seed=0) == []

    @pytest.mark.parametrize(
        "cfg",
        [
            ThetaTraceConfig(n_jobs=300),
            ThetaTraceConfig(total_nodes=4392, n_jobs=300, diurnal=False),
            ThetaTraceConfig(total_nodes=1, n_jobs=40),
            ThetaTraceConfig(total_nodes=64, n_jobs=200, p_capability=0.4),
        ],
        ids=["mini", "theta-flat", "one-node", "capability"],
    )
    def test_python_columns_build_what_numpy_scalars_built(self, cfg):
        """The trace is built from ``tolist()`` columns and a list of node
        counts; the NumPy-scalar build it replaced is the oracle."""
        from repro.workload import theta

        def numpy_nodes(rng, n):
            max_pow = int(np.log2(cfg.total_nodes)) if cfg.total_nodes > 1 else 0
            nodes = np.empty(n, dtype=np.int64)
            kind = rng.random(n)
            for i in range(n):
                if kind[i] < cfg.p_capability:
                    nodes[i] = rng.integers(cfg.total_nodes // 2, cfg.total_nodes + 1)
                elif kind[i] < cfg.p_capability + cfg.p_power_of_two:
                    nodes[i] = 2 ** rng.binomial(max_pow, 0.45)
                else:
                    nodes[i] = min(cfg.total_nodes, 1 + rng.geometric(1.0 / cfg.small_job_mean))
            return np.clip(nodes, 1, cfg.total_nodes)

        rng = np.random.default_rng(17)
        arrivals = theta._sample_arrivals(cfg, rng)
        nodes = numpy_nodes(rng, cfg.n_jobs)
        runtimes = theta._sample_runtimes(cfg, rng, cfg.n_jobs)
        walltimes = theta._sample_walltimes(cfg, rng, runtimes)
        want = [
            (i + 1, float(arrivals[i]), float(runtimes[i]), float(walltimes[i]),
             {NODE: int(nodes[i])})
            for i in range(cfg.n_jobs)
        ]
        jobs = generate_theta_trace(cfg, seed=17)
        got = [(j.job_id, j.submit_time, j.runtime, j.walltime, j.requests) for j in jobs]
        assert got == want
        assert {type(j.submit_time) for j in jobs} == {type(j.walltime) for j in jobs} == {float}
        assert {type(j.requests[NODE]) for j in jobs} == {int}

    def test_sorted_by_submit_with_sequential_ids(self):
        jobs = generate_theta_trace(ThetaTraceConfig(n_jobs=100), seed=3)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)
        assert [j.job_id for j in jobs] == list(range(1, 101))

    def test_bounds_respected(self):
        cfg = ThetaTraceConfig(total_nodes=64, n_jobs=300)
        jobs = generate_theta_trace(cfg, seed=4)
        for job in jobs:
            assert 1 <= job.request(NODE) <= 64
            assert cfg.min_runtime <= job.runtime <= cfg.max_runtime
            assert job.walltime >= job.runtime

    def test_overestimate_bounded(self):
        cfg = ThetaTraceConfig(n_jobs=300, max_overestimate=3.0, p_round_walltime=0.0)
        jobs = generate_theta_trace(cfg, seed=5)
        for job in jobs:
            assert job.walltime <= 3.0 * job.runtime + 1e-9

    def test_power_of_two_bias(self):
        cfg = ThetaTraceConfig(
            total_nodes=128, n_jobs=1000, p_power_of_two=1.0, p_capability=0.0
        )
        jobs = generate_theta_trace(cfg, seed=6)
        sizes = np.array([j.request(NODE) for j in jobs])
        assert np.all((sizes & (sizes - 1)) == 0)  # all powers of two

    def test_capability_runs_large(self):
        cfg = ThetaTraceConfig(
            total_nodes=128, n_jobs=500, p_capability=1.0, p_power_of_two=0.0
        )
        jobs = generate_theta_trace(cfg, seed=7)
        assert all(j.request(NODE) >= 64 for j in jobs)

    def test_mean_interarrival_approximate(self):
        cfg = ThetaTraceConfig(n_jobs=2000, mean_interarrival=100.0, diurnal=False)
        jobs = generate_theta_trace(cfg, seed=8)
        gaps = np.diff([j.submit_time for j in jobs])
        assert 80.0 < gaps.mean() < 120.0

    def test_diurnal_modulation_changes_hourly_counts(self):
        cfg = ThetaTraceConfig(n_jobs=5000, mean_interarrival=60.0, diurnal=True)
        jobs = generate_theta_trace(cfg, seed=9)
        hours = (np.array([j.submit_time for j in jobs]) // 3600 % 24).astype(int)
        counts = np.bincount(hours, minlength=24)
        # Peak working hours should clearly out-submit the small hours.
        assert counts[10:16].mean() > 1.5 * counts[0:5].mean()
