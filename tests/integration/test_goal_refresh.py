"""Eq. 1 is refreshed only where a decision reads it, and that changes nothing.

A replay that records no timeline refreshes the §III-B goal only at
instances where a decision can read it: a window of two or more jobs
(evaluation), or any queued job (MRSch training, which stores the goal
with every experience), and in either case no standing reservation
that still cannot start (such an instance makes no selection). The
oracle is a twin refreshed at every instance — the rule the simulator
followed before — and each replay below must start every job at the
same time and count the same decisions as that twin. A recorded
replay still logs the goal at every instance.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import run_single
from repro.core.prior import PriorScheduler
from repro.experiments.harness import (
    ExperimentConfig,
    make_method,
    prepare_base_trace,
    train_method,
)
from repro.sched.ga_config import NSGA2Config
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload


def _prior_select(self, window, ctx):
    """The ``prior`` method's selection without its one-job shortcut."""
    if not window:
        return None
    return window[int(np.argmax(self._prior(window, ctx)[: len(window)]))]


def always_refreshes(sched):
    """Re-class ``sched`` onto a twin that refreshes the goal at every
    instance (and whose ``prior`` selection computes the prior for a
    one-job window too); returns ``sched``."""
    cls = type(sched)
    methods = {"_reads_goal": lambda self, ctx: True}
    if cls is PriorScheduler:
        methods["select"] = _prior_select
    sched.__class__ = type(f"AlwaysRefreshing{cls.__name__}", (cls,), methods)
    return sched


BASE = ExperimentConfig(nodes=32, bb_units=16, n_jobs=60, seed=11)

#: a light trace (few instances hold two queued jobs), a loaded one, and
#: a saturated one where most instances open under a standing
#: reservation that still cannot start (no selection, so no refresh)
TRACES = {
    "light": 3000.0,
    "loaded": BASE.mean_interarrival,
    "standing": BASE.mean_interarrival / 4,
}

ARMS = {
    "prior": ("prior", {}),
    "guided": ("mrsch", {}),
    "dfp": ("mrsch", {"prior_weight": 0.0}),
}


def _replay(config, method, options, oracle):
    system = config.system()
    jobs = build_workload("S4", prepare_base_trace(config), system, seed=config.seed)
    sched = make_method(method, system, config, **options)
    if oracle:
        always_refreshes(sched)
    result = Simulator(system, sched, record_timeline=False).run(jobs)
    starts = [(job.job_id, job.start_time) for job in result.jobs]
    counts = (sched.decisions, sched.decisions_scored, sched.decisions_overruled)
    return starts, counts, sched.goal_refreshes, result.n_scheduling_instances


@pytest.mark.parametrize("trace", sorted(TRACES))
@pytest.mark.parametrize("window_size", [1, 10])
@pytest.mark.parametrize("dynamic_goal", [True, False], ids=["dynamic", "frozen"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_a_replay_decides_as_if_refreshed_at_every_instance(
    arm, dynamic_goal, window_size, trace
):
    config = dataclasses.replace(
        BASE, window_size=window_size, mean_interarrival=TRACES[trace]
    )
    method, options = ARMS[arm]
    options = {**options, "dynamic_goal": dynamic_goal}
    starts, counts, refreshes, instances = _replay(config, method, options, False)
    want_starts, want_counts, forced, _ = _replay(config, method, options, True)
    assert starts == want_starts
    assert counts == want_counts
    if not dynamic_goal or window_size == 1:
        assert refreshes == 0  # no decision of these replays reads the goal
    else:
        assert 0 < refreshes < forced == instances


def test_the_loaded_trace_scores_decisions_off_refreshed_goals():
    """The comparison above has teeth: on the loaded trace pure DFP
    scores decisions, each reading the goal."""
    config = dataclasses.replace(BASE, window_size=10)
    _, (decisions, scored, _), refreshes, _ = _replay(
        config, "mrsch", {"prior_weight": 0.0}, False
    )
    assert 0 < scored < decisions
    assert refreshes > 0


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_a_standing_reservation_skips_the_refresh(arm, monkeypatch):
    """The comparison above has teeth on the saturated trace: most
    instances that hold two queued jobs open under a reservation that
    still cannot start, and skip the refresh a twin without that gate
    makes — deciding exactly as the twin does."""
    config = dataclasses.replace(
        BASE, window_size=10, mean_interarrival=TRACES["standing"]
    )
    method, options = ARMS[arm]
    starts, counts, refreshes, _ = _replay(config, method, options, False)
    monkeypatch.setattr(PriorScheduler, "_reservation_blocks", lambda self, ctx: False)
    want_starts, want_counts, ungated, _ = _replay(config, method, options, False)
    assert starts == want_starts
    assert counts == want_counts
    assert 0 < refreshes < ungated / 4


def test_training_learns_the_same_weights_and_losses():
    """A training decision stores the goal with its experience, a one-job
    window's too: curriculum training refreshed by the rule reaches the
    weights and losses of training refreshed at every instance."""
    config = ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=25, window_size=5, seed=41,
        curriculum_sets=(1, 1, 1), jobs_per_trainset=20,
    )

    def train(oracle):
        system = config.system()
        sched = make_method("mrsch", system, config)
        if oracle:
            always_refreshes(sched)
        result = train_method(sched, system, config)
        return result.losses, sched.agent.state_dict()

    losses, weights = train(False)
    want_losses, want_weights = train(True)
    assert losses == want_losses
    assert weights.keys() == want_weights.keys()
    for key, value in want_weights.items():
        assert np.array_equal(weights[key], value), key


@pytest.mark.parametrize("dynamic_goal", [True, False], ids=["dynamic", "frozen"])
def test_run_single_logs_one_goal_per_instance(dynamic_goal):
    config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=40, seed=3)
    result, sched = run_single(
        "S4", "mrsch", config, train=False, dynamic_goal=dynamic_goal
    )
    times, goals = sched.goal_series()
    assert len(times) == len(goals) == result.n_scheduling_instances > 0
    assert times.tolist() == sorted(times.tolist())
    assert sched.goal_refreshes == (result.n_scheduling_instances if dynamic_goal else 0)


def test_an_unrecorded_replay_logs_no_goal(tiny_system, tiny_trace):
    sched = make_method("prior", tiny_system, ExperimentConfig(nodes=16, bb_units=8))
    Simulator(tiny_system, sched, record_timeline=False).run(tiny_trace)
    times, goals = sched.goal_series()
    assert times.size == 0 and goals.shape == (0, tiny_system.n_resources)


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
@pytest.mark.parametrize("method", ["heuristic", "optimization", "scalar_rl"])
def test_a_policy_without_eq1_never_refreshes(method, record):
    config = ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=30, seed=5,
        ga_config=NSGA2Config(population=4, generations=2),
    )
    system = config.system()
    jobs = build_workload("S3", prepare_base_trace(config), system, seed=config.seed)
    sched = make_method(method, system, config)
    Simulator(system, sched, record_timeline=record).run(jobs)
    assert sched.decisions > 0
    assert sched.goal_refreshes == 0


def test_the_counter_is_reset_per_run(tiny_system, tiny_trace):
    sched = make_method("prior", tiny_system, ExperimentConfig(nodes=16, bb_units=8))
    sim = Simulator(tiny_system, sched)
    first = sim.run(tiny_trace)
    assert sched.goal_refreshes == first.n_scheduling_instances
    sim.run(tiny_trace)
    assert sched.goal_refreshes == first.n_scheduling_instances


def test_the_goal_log_is_reset_per_run(tiny_system, tiny_trace):
    sched = make_method("prior", tiny_system, ExperimentConfig(nodes=16, bb_units=8))
    sim = Simulator(tiny_system, sched)
    first = sim.run(tiny_trace)
    times, goals = sched.goal_series()
    sim.run(tiny_trace)
    again_times, again_goals = sched.goal_series()
    assert len(again_times) == first.n_scheduling_instances
    assert again_times.tobytes() == times.tobytes()
    assert again_goals.tobytes() == goals.tobytes()


def test_every_logged_goal_is_a_simplex_point(tiny_system, tiny_trace):
    sched = make_method("prior", tiny_system, ExperimentConfig(nodes=16, bb_units=8))
    Simulator(tiny_system, sched).run(tiny_trace)
    _, goals = sched.goal_series()
    assert goals.shape[1] == tiny_system.n_resources
    assert np.all(goals >= 0.0)
    np.testing.assert_allclose(goals.sum(axis=1), 1.0)


def test_a_frozen_goal_logs_uniform_weights_as_separate_rows(tiny_system, tiny_trace):
    sched = PriorScheduler(tiny_system, dynamic_goal=False)
    result = Simulator(tiny_system, sched).run(tiny_trace)
    _, goals = sched.goal_series()
    assert goals.tolist() == [[0.5, 0.5]] * result.n_scheduling_instances
    logged = [goal for _, goal in sched.goal_log]
    assert len({id(goal) for goal in logged}) == len(logged)


def test_recording_the_goal_log_moves_no_decision(tiny_system, tiny_trace):
    def replay(record):
        sched = make_method("prior", tiny_system, ExperimentConfig(nodes=16, bb_units=8))
        result = Simulator(tiny_system, sched, record_timeline=record).run(tiny_trace)
        return [(j.job_id, j.start_time) for j in result.jobs], result.metrics.full_dict()

    assert replay(True) == replay(False)
