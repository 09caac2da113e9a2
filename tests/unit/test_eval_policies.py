"""Built-in offline policies and the eval-policy registry."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.prior import guided_scores
from repro.eval.evaluator import policy_choices
from repro.eval.policies import (
    DFPReplayPolicy,
    build_policies,
    describe_eval_policies,
    get_eval_policy,
    list_eval_policies,
    register_eval_policy,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = list_eval_policies()
        for expected in (
            "fcfs",
            "shortest_job",
            "longest_queued",
            "smallest_demand",
            "largest_demand",
            "prior",
            "logged",
        ):
            assert expected in names

    def test_lookup_is_case_insensitive(self):
        assert get_eval_policy("FCFS").name == "fcfs"

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="available:"):
            get_eval_policy("slurm")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_eval_policy("FcFs")(lambda trace: None)

    def test_register_and_build(self, make_decision_trace):
        @register_eval_policy("test_widest", description="most nodes first")
        def widest(trace):
            return trace.feature("req_frac:node")

        try:
            policies = build_policies(["fcfs", "test_widest"])
            assert set(policies) == {"fcfs", "test_widest"}
            trace = make_decision_trace()
            assert policies["test_widest"](trace).shape == trace.masks.shape
        finally:
            from repro.eval import policies as mod

            mod._POLICIES.pop("test_widest", None)

    def test_describe_has_one_line_per_policy(self):
        described = describe_eval_policies()
        assert set(described) == set(list_eval_policies())
        assert all("\n" not in d for d in described.values())

    def test_build_policies_accepts_mapping_verbatim(self):
        scorer = lambda trace: None  # noqa: E731
        assert build_policies({"mine": scorer}) == {"mine": scorer}


class TestBuiltinScorers:
    def test_fcfs_prefers_slot_zero(self, make_decision_trace):
        trace = make_decision_trace()
        scores = get_eval_policy("fcfs").scorer(trace)
        assert (policy_choices(trace, scores) == 0).all()

    def test_fcfs_respects_mask(self, make_decision_trace):
        trace = make_decision_trace(n=3)
        trace.masks[:, 0] = False
        scores = get_eval_policy("fcfs").scorer(trace)
        assert (policy_choices(trace, scores) == 1).all()

    def test_shortest_job_picks_minimum_walltime(self, make_decision_trace):
        trace = make_decision_trace(seed=5)
        choices = policy_choices(
            trace, get_eval_policy("shortest_job").scorer(trace)
        )
        np.testing.assert_array_equal(
            choices, trace.feature("walltime").argmin(axis=1)
        )

    def test_longest_queued_picks_maximum_wait(self, make_decision_trace):
        trace = make_decision_trace(seed=6)
        choices = policy_choices(
            trace, get_eval_policy("longest_queued").scorer(trace)
        )
        np.testing.assert_array_equal(
            choices, trace.feature("queued").argmax(axis=1)
        )

    def test_demand_policies_are_goal_weighted_opposites(self, make_decision_trace):
        trace = make_decision_trace(seed=7)
        small = get_eval_policy("smallest_demand").scorer(trace)
        large = get_eval_policy("largest_demand").scorer(trace)
        np.testing.assert_allclose(small, -large)
        # Demand must respond to the goal vector, not just raw requests.
        reweighted = make_decision_trace(seed=7)
        reweighted.goals[:] = np.array([1.0, 0.0])
        node_only = get_eval_policy("smallest_demand").scorer(reweighted)
        np.testing.assert_allclose(
            node_only, -reweighted.feature("req_frac:node")
        )

    def test_prior_matches_mrsch_formula(self, make_decision_trace):
        """Fitting jobs score 1.5 − demand; non-fitting −1.5 − 0.1·slot."""
        trace = make_decision_trace(n=2, window=3, seed=8)
        trace.job_features[0, 1, trace.feature_index("fits")] = 0.0
        scores = get_eval_policy("prior").scorer(trace)
        r = len(trace.meta["resources"])
        demand = (trace.job_features[:, :, :r] * trace.goals[:, None, :]).sum(-1)
        assert scores[0, 1] == pytest.approx(-1.5 - 0.1 * 1)
        assert scores[0, 0] == pytest.approx(1.5 - demand[0, 0])
        assert scores[1, 2] == pytest.approx(1.5 - demand[1, 2])

    def test_logged_reproduces_recorded_actions(self, make_decision_trace):
        trace = make_decision_trace(n=5, window=4, actions=[0, 3, 1, 2, 0])
        choices = policy_choices(trace, get_eval_policy("logged").scorer(trace))
        np.testing.assert_array_equal(choices, trace.actions)


class TestDFPReplayRule:
    def test_rows_are_the_live_guided_rule_and_a_stale_tiebreak_key_is_ignored(
        self, make_decision_trace
    ):
        """Replay applies ``guided_scores`` at the constant cap whether or
        not the trace carries the ``dfp_tiebreak`` key older recorders wrote."""
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 4))
        agent = SimpleNamespace(action_scores_batch=lambda states, meas, goals: raw)
        for stale in ({}, {"dfp_tiebreak": 0.0}):
            trace = make_decision_trace(n=6, window=4, prior_weight=2.0, **stale)
            trace.priors[:] = rng.uniform(-1.5, 1.5, size=trace.priors.shape)
            trace.masks[2, 3:] = False
            scores = DFPReplayPolicy(agent)(trace)
            for i in range(trace.n_decisions):
                live = guided_scores(2.0, trace.priors[i], raw[i], trace.masks[i])
                assert scores[i].tobytes() == live.tobytes()
            assert scores[2, 3] == -np.inf
            # the DFP term is live (a zero cap would leave the weighted prior)
            assert not np.array_equal(scores[0], 2.0 * trace.priors[0])
