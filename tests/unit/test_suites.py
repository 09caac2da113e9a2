"""Tests for Table III workloads (S1–S5) and the power case study (S6–S10)."""

import numpy as np
import pytest

from repro.cluster.resources import BURST_BUFFER, NODE, POWER, SystemConfig
from repro.workload import suites
from repro.workload.suites import (
    CASE_STUDY_SPECS,
    POWER_PER_NODE_RANGE,
    POWER_UNIT_W,
    WORKLOAD_SPECS,
    WorkloadSpec,
    build_case_study_workload,
    build_workload,
    scaled_power_budget_units,
)
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace


@pytest.fixture(scope="module")
def base_trace():
    return generate_theta_trace(
        ThetaTraceConfig(total_nodes=128, n_jobs=800), seed=21
    )


@pytest.fixture(scope="module")
def system():
    return SystemConfig.mini_theta(nodes=128, bb_units=64)


def demand_ratios(base_trace, system, seed) -> dict[str, float]:
    """Per S-workload, BB demand over node demand (runtime-weighted)."""
    ratios = {}
    for name in WORKLOAD_SPECS:
        jobs = build_workload(name, base_trace, system, seed=seed)
        rt = np.array([j.runtime for j in jobs])
        bb = np.array([j.request(BURST_BUFFER) for j in jobs])
        nodes = np.array([j.request(NODE) for j in jobs])
        bb_demand = (bb * rt).sum() / system.capacity(BURST_BUFFER)
        node_demand = (nodes * rt).sum() / system.capacity(NODE)
        ratios[name] = bb_demand / node_demand
    return ratios


class TestSpecs:
    def test_table3_rows_present(self):
        assert set(WORKLOAD_SPECS) == {"S1", "S2", "S3", "S4", "S5"}
        assert set(CASE_STUDY_SPECS) == {"S6", "S7", "S8", "S9", "S10"}

    def test_table3_fractions(self):
        assert WORKLOAD_SPECS["S1"].bb_fraction == 0.50
        assert WORKLOAD_SPECS["S2"].bb_fraction == 0.75
        assert WORKLOAD_SPECS["S3"].bb_fraction == 0.50
        assert WORKLOAD_SPECS["S4"].bb_fraction == 0.75
        assert WORKLOAD_SPECS["S5"].bb_fraction == 0.75

    def test_s5_halves_nodes(self):
        assert WORKLOAD_SPECS["S5"].node_scale == 0.5
        assert all(WORKLOAD_SPECS[s].node_scale == 1.0 for s in ("S1", "S2", "S3", "S4"))

    def test_ranges_match_paper(self):
        # S1/S2: [5 TB, 285 TB] of 1290 TB; S3/S4/S5: [20 TB, 285 TB].
        assert WORKLOAD_SPECS["S1"].bb_lo_frac == pytest.approx(5 / 1290)
        assert WORKLOAD_SPECS["S3"].bb_lo_frac == pytest.approx(20 / 1290)
        for s in WORKLOAD_SPECS.values():
            assert s.bb_hi_frac == pytest.approx(285 / 1290)

    def test_case_study_marks_power(self):
        assert all(s.with_power for s in CASE_STUDY_SPECS.values())
        assert not any(s.with_power for s in WORKLOAD_SPECS.values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("X", bb_fraction=2.0, bb_lo_frac=0.1, bb_hi_frac=0.2)
        with pytest.raises(ValueError):
            WorkloadSpec("X", bb_fraction=0.5, bb_lo_frac=0.3, bb_hi_frac=0.2)
        with pytest.raises(ValueError):
            WorkloadSpec("X", bb_fraction=0.5, bb_lo_frac=0.1, bb_hi_frac=0.2, node_scale=0)


class TestBuildWorkload:
    def test_unknown_name(self, base_trace, system):
        with pytest.raises(KeyError):
            build_workload("S99", base_trace, system)

    def test_bb_fraction_approximate(self, base_trace, system):
        jobs = build_workload("S2", base_trace, system, seed=1)
        frac = np.mean([j.request(BURST_BUFFER) > 0 for j in jobs])
        assert 0.70 < frac < 0.80

    def test_bb_sizes_within_capacity(self, base_trace, system):
        for name in WORKLOAD_SPECS:
            jobs = build_workload(name, base_trace, system, seed=2)
            for job in jobs:
                assert 0 <= job.request(BURST_BUFFER) <= system.capacity(BURST_BUFFER)

    def test_s3_sizes_exceed_s1_floor(self, base_trace, system):
        """S3's 20 TB floor maps to ≥1 unit on the mini system and its
        mean request exceeds S1's (heavier contention)."""
        s1 = build_workload("S1", base_trace, system, seed=3)
        s3 = build_workload("S3", base_trace, system, seed=3)
        mean_bb = lambda jobs: np.mean(
            [j.request(BURST_BUFFER) for j in jobs if j.request(BURST_BUFFER) > 0]
        )
        assert mean_bb(s3) > mean_bb(s1)

    def test_s5_nodes_halved(self, base_trace, system):
        s4 = build_workload("S4", base_trace, system, seed=4)
        s5 = build_workload("S5", base_trace, system, seed=4)
        for j4, j5 in zip(s4, s5):
            expected = max(1, round(j4.request(NODE) * 0.5))
            assert j5.request(NODE) == min(expected, system.capacity(NODE))

    def test_contention_ladder_monotone(self, base_trace, system):
        """BB-vs-node demand ratio increases from S1 to S5 (Table III's
        light→heavy contention design)."""
        ratios = demand_ratios(base_trace, system, seed=5)
        assert ratios["S1"] < ratios["S2"]
        assert ratios["S1"] < ratios["S3"]
        assert ratios["S3"] < ratios["S4"] < ratios["S5"]

    def test_contention_ladder_at_the_census_sizing(self, system):
        """The same ladder on a 500-job trace of the default
        ExperimentConfig, the workloads the fidelity census replays."""
        from repro.experiments.harness import ExperimentConfig

        config = ExperimentConfig()
        base = generate_theta_trace(config.trace_config(500), seed=config.seed)
        ratios = demand_ratios(base, system, seed=config.seed)
        assert ratios["S1"] < ratios["S2"]
        assert ratios["S3"] < ratios["S4"] < ratios["S5"]

    def test_base_trace_not_mutated(self, base_trace, system):
        before = [dict(j.requests) for j in base_trace]
        build_workload("S4", base_trace, system, seed=6)
        assert [dict(j.requests) for j in base_trace] == before

    def test_deterministic_under_seed(self, base_trace, system):
        a = build_workload("S1", base_trace, system, seed=7)
        b = build_workload("S1", base_trace, system, seed=7)
        assert [j.requests for j in a] == [j.requests for j in b]


class TestCaseStudy:
    def test_power_system_extension(self, base_trace, system):
        jobs, powered = build_case_study_workload("S6", base_trace, system, seed=8)
        assert POWER in powered.names
        assert powered.capacity(POWER) == scaled_power_budget_units(system)

    def test_power_requests_bounded(self, base_trace, system):
        jobs, powered = build_case_study_workload("S9", base_trace, system, seed=9)
        lo, hi = POWER_PER_NODE_RANGE
        budget = powered.capacity(POWER)
        for job in jobs:
            nodes = job.request(NODE)
            units = job.request(POWER)
            assert 1 <= units <= budget
            # ceil(nodes * per_node / unit) with per_node in [lo, hi],
            # power-capped at the facility budget.
            assert units <= np.ceil(nodes * hi / POWER_UNIT_W)
            assert units >= min(budget, np.floor(nodes * lo / POWER_UNIT_W))

    def test_budget_scaling(self):
        small = SystemConfig.mini_theta(nodes=128, bb_units=64)
        big = SystemConfig.mini_theta(nodes=256, bb_units=64)
        assert scaled_power_budget_units(big) == pytest.approx(
            2 * scaled_power_budget_units(small), rel=0.02
        )

    def test_non_power_spec_rejected(self, base_trace, system):
        with pytest.raises(ValueError):
            build_case_study_workload(WORKLOAD_SPECS["S1"], base_trace, system)


def _requests(jobs) -> list:
    return [(j.job_id, j.submit_time, j.runtime, j.walltime, j.requests) for j in jobs]


class TestSharedDarshanDraw:
    """The workloads of a cell draw one set of Darshan volumes.

    ``_darshan_volumes`` keeps the last draw with its key (the base list,
    its node requests, the generator state before the draw) and on a
    repeat restores the generator state after it. The oracle is the
    unshared build: the same call with the entry cleared first.
    """

    @pytest.fixture()
    def draws(self, monkeypatch):
        from repro.workload import darshan

        calls = []
        draw = darshan.generate_darshan_records

        def spy(jobs, **kwargs):
            calls.append(jobs)
            return draw(jobs, **kwargs)

        monkeypatch.setattr(darshan, "generate_darshan_records", spy)
        monkeypatch.setattr(suites, "_darshan_draw", None)
        return calls

    @staticmethod
    def _build(name, base, system, seed, shared=True):
        if not shared:
            suites._darshan_draw = None
        if name in CASE_STUDY_SPECS:
            return build_case_study_workload(name, base, system, seed=seed)[0]
        return build_workload(name, base, system, seed=seed)

    def test_a_cell_draws_once_and_builds_what_unshared_builds_build(
        self, base_trace, system, draws
    ):
        names = [*WORKLOAD_SPECS, *CASE_STUDY_SPECS]
        shared = [self._build(name, base_trace, system, 5) for name in names]
        assert len(draws) == 1
        for name, jobs in zip(names, shared):
            assert _requests(jobs) == _requests(
                self._build(name, base_trace, system, 5, shared=False)
            ), name
        assert len(draws) == 1 + len(names)
        assert all(POWER in j.requests for j in shared[-1])

    def test_node_requests_changed_in_place_are_redrawn(self, base_trace, system, draws):
        base = [job.copy() for job in base_trace]
        build_workload("S1", base, system, seed=3)
        build_workload("S1", base, system, seed=3)
        assert len(draws) == 1
        base[0].requests[NODE] = base[0].request(NODE) % 64 + 1
        got = build_workload("S1", base, system, seed=3)
        assert len(draws) == 2
        assert _requests(got) == _requests(self._build("S1", base, system, 3, shared=False))

    def test_another_seed_or_list_is_redrawn(self, base_trace, system, draws):
        build_workload("S2", base_trace, system, seed=3)
        build_workload("S2", base_trace, system, seed=4)
        build_workload("S2", list(base_trace), system, seed=4)
        assert len(draws) == 3

    def test_a_callers_generator_ends_where_the_unshared_build_leaves_it(
        self, base_trace, system, draws
    ):
        build_workload("S2", base_trace, system, seed=np.random.default_rng(8))
        rng = np.random.default_rng(8)
        got = build_workload("S4", base_trace, system, seed=rng)
        assert len(draws) == 1
        want_rng = np.random.default_rng(8)
        want = self._build("S4", base_trace, system, want_rng, shared=False)
        assert _requests(got) == _requests(want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        assert rng.random(4).tolist() == want_rng.random(4).tolist()

    def test_one_entry_is_held(self, base_trace, system, draws):
        other = [job.copy() for job in base_trace[:200]]
        build_workload("S1", base_trace, system, seed=2)
        build_workload("S1", other, system, seed=2)
        entry = suites._darshan_draw
        assert isinstance(entry, tuple) and entry[0] is other
        build_workload("S1", base_trace, system, seed=2)
        assert len(draws) == 3  # the first list's draw was dropped
        assert suites._darshan_draw[0] is base_trace

    def test_a_generator_whose_state_holds_arrays_is_not_kept(self, base_trace, system, draws):
        def mt():
            return np.random.Generator(np.random.MT19937(6))

        a = build_workload("S3", base_trace, system, seed=mt())
        b = build_workload("S3", base_trace, system, seed=mt())
        assert _requests(a) == _requests(b)
        assert len(draws) == 2 and suites._darshan_draw is None
