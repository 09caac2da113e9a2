"""Arrivals off the event heap change no start, instance or decision.

:class:`~repro.sim.episode.EpisodeState` reads arrivals off a cursor over
its loaded jobs and keeps only job ENDs on its heap. The oracle is the
episode that pushed every arrival as a SUBMIT event onto the one heap
(``tests/unit/_sim_reference.py``): every replay below must start and end
every job at the same instant, count the same scheduling instances and
the same decisions, and log the same Eq. 1 goals as that twin.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import training
from repro.experiments.harness import ExperimentConfig, make_method, prepare_base_trace
from repro.sched.fcfs import FCFSScheduler
from repro.sched.ga_config import NSGA2Config
from repro.sim.episode import EpisodeState
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from tests.conftest import make_job
from tests.unit._sim_reference import as_reference, reference_metrics

BASE = ExperimentConfig(
    nodes=32, bb_units=16, n_jobs=50, seed=23,
    ga_config=NSGA2Config(population=4, generations=2),
)

#: mean inter-arrival (s): nothing queues, a queue forms, it never drains
TRACES = {"light": 3000.0, "loaded": BASE.mean_interarrival, "saturated": 60.0}

METHODS = ["heuristic", "prior", "mrsch", "optimization", "scalar_rl"]


def _outcome(sched, result) -> tuple:
    """What a replay decided: per-job times, instances, decision counters
    and the Eq. 1 goal log of a policy that keeps one."""
    goals = sched.goal_series() if hasattr(sched, "goal_series") else ()
    return (
        [(job.job_id, job.start_time, job.end_time) for job in result.jobs],
        result.n_scheduling_instances,
        (
            sched.decisions, sched.decisions_scored, sched.decisions_overruled,
            sched.goal_refreshes, sched.backfill_passes, sched.backfill_rows,
        ),
        [array.tobytes() for array in goals],
        result.metrics.full_dict(),
    )


def _replay(method, jobs, system, config, oracle):
    sched = make_method(method, system, config)
    sim = Simulator(system, sched)
    if oracle:
        as_reference(sim)
    return _outcome(sched, sim.run(jobs))


@pytest.mark.parametrize("trace", sorted(TRACES))
@pytest.mark.parametrize("method", METHODS)
def test_a_replay_decides_as_the_submit_heap_did(method, trace):
    config = dataclasses.replace(BASE, mean_interarrival=TRACES[trace])
    system = config.system()
    jobs = build_workload("S4", prepare_base_trace(config), system, seed=config.seed)
    assert _replay(method, jobs, system, config, oracle=False) == _replay(
        method, jobs, system, config, oracle=True
    )


def test_the_saturated_trace_queues_and_backfills():
    """The comparison above has teeth: under saturation jobs wait and
    EASY passes run. ``compute_metrics`` reads the job fields, and the
    job properties read the same."""
    config = dataclasses.replace(BASE, mean_interarrival=TRACES["saturated"])
    system = config.system()
    jobs = build_workload("S4", prepare_base_trace(config), system, seed=config.seed)
    sched = make_method("heuristic", system, config)
    result = Simulator(system, sched).run(jobs)
    assert sum(job.start_time > job.submit_time for job in result.jobs) > 10
    assert sched.backfill_passes > 0
    m = result.metrics
    assert (m.avg_wait, m.avg_slowdown, m.max_wait, m.p95_slowdown) == reference_metrics(
        result.jobs
    )


# -- edge cases -------------------------------------------------------------


def _edge_replay(jobs, system, oracle):
    state = EpisodeState(system)
    if oracle:
        as_reference(state)
    state.load(jobs)
    sched = FCFSScheduler(window_size=5)
    sched.reset()
    times = []
    while state.advance():
        times.append((state.now, [job.job_id for job in state.queue]))
        sched.schedule(state.context())
        state.end_instance()
    result = state.finish()
    return times, [(j.job_id, j.start_time, j.end_time) for j in result.jobs]


EDGES = {
    # Job 2 needs the whole machine and arrives as job 1 ends: the END
    # must free the nodes before the arrival is scheduled.
    "end_and_submit_at_one_instant": [
        make_job(job_id=1, submit=0.0, runtime=100.0, nodes=16),
        make_job(job_id=2, submit=100.0, runtime=10.0, nodes=16),
        make_job(job_id=3, submit=100.0, runtime=5.0, nodes=1),
    ],
    # Four arrivals at one instant, then a pair that ties job ends.
    "duplicate_submit_times": [
        make_job(job_id=i, submit=0.0 if i <= 4 else 50.0, runtime=50.0, nodes=6)
        for i in range(1, 7)
    ],
    # The caller's list is in neither submit nor id order.
    "unsorted_input": [
        make_job(job_id=5, submit=30.0, runtime=20.0, nodes=9),
        make_job(job_id=2, submit=0.0, runtime=40.0, nodes=9),
        make_job(job_id=4, submit=30.0, runtime=10.0, nodes=3),
        make_job(job_id=1, submit=0.0, runtime=30.0, nodes=9),
        make_job(job_id=3, submit=10.0, runtime=25.0, nodes=2),
    ],
}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_edge_cases_replay_as_the_submit_heap_did(edge, tiny_system):
    jobs = EDGES[edge]
    assert _edge_replay(jobs, tiny_system, False) == _edge_replay(jobs, tiny_system, True)


def test_an_end_frees_units_for_an_arrival_at_its_instant(tiny_system):
    times, starts = _edge_replay(EDGES["end_and_submit_at_one_instant"], tiny_system, False)
    assert times[1] == (100.0, [2, 3])  # one instant: job 1's END, two arrivals
    assert starts[1] == (2, 100.0, 110.0)


# -- training, snapshot / restore ------------------------------------------


def test_a_training_episode_learns_what_the_submit_heap_taught(monkeypatch):
    config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=30, window_size=5, seed=29)
    system = config.system()
    jobs = build_workload("S3", prepare_base_trace(config), system, seed=config.seed)

    def train(oracle):
        if oracle:
            monkeypatch.setattr(
                training, "Simulator", lambda *a, **k: as_reference(Simulator(*a, **k))
            )
        sched = make_method("mrsch", system, config)
        result = training.train_episodes(sched, [jobs], system)
        monkeypatch.undo()
        return result.losses, sched.agent.state_dict()

    losses, weights = train(False)
    want_losses, want_weights = train(True)
    assert losses == want_losses and losses[0] > 0
    assert weights.keys() == want_weights.keys()
    for key, value in want_weights.items():
        assert np.array_equal(weights[key], value), key


def _finish(state, sched):
    result = state.run_to_completion(sched)
    starts = [(j.job_id, j.start_time, j.end_time) for j in result.jobs]
    return starts, result.n_scheduling_instances


@pytest.mark.parametrize("fork_at", [1, 9])
def test_a_restore_with_arrivals_pending_replays_to_the_same_end(fork_at):
    config = dataclasses.replace(BASE, mean_interarrival=TRACES["loaded"])
    system = config.system()
    jobs = build_workload("S2", prepare_base_trace(config), system, seed=config.seed)

    def run(oracle):
        state = EpisodeState(system)
        if oracle:
            as_reference(state)
        state.load(jobs)
        sched = FCFSScheduler(window_size=5)
        sched.reset()
        for _ in range(fork_at):
            assert state.advance()
            sched.schedule(state.context())
            state.end_instance()
        return state, sched

    state, sched = run(False)
    pending = len(state.jobs) - state.arrivals
    assert pending > 0
    snap = state.snapshot()
    first = _finish(state, sched)
    assert state.arrivals == len(state.jobs)
    state.restore(snap)
    assert len(state.jobs) - state.arrivals == pending
    again = FCFSScheduler(window_size=5)
    again.reset()
    assert _finish(state, again) == first
    reference, ref_sched = run(True)
    assert _finish(reference, ref_sched) == first
