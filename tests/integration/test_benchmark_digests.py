"""Seed-7 ``result_digest``s equal ``benchmarks/e2e/reference/seed7.json``.

The standing bit-identity contract of every performance PR, held here
for all six workloads. Four run in tier-1: the two replay workloads —
``replay_fcfs`` (``Scheduler.schedule`` on a saturated queue, whose
EASY passes scan the columns) and ``replay_theta`` (an untrained MRSch
at Theta geometry, one ``Simulator.run`` per workload) — and, run
in-process, ``cold_cli``'s scenario (two cells: FCFS and an untrained
MRSch over two workloads) and ``sweep_queue``'s grid of short FCFS
cells, whose EASY passes walk their few queued jobs one by one. The two training workloads run under
the ``slow`` marker: training is where the agent's ε-greedy draw stream
and replay buffer are held to the reference. The benchmark's own files are *read*, never edited: the
scenarios come from ``workloads.py``, the digest function from
``check.py``, the expected values from the committed reference run.

Seed 7's ``replay_theta`` settles every decision before the network is
asked, so its pin would pass with any weights; the seed-15 row, whose
expected value lives here, runs the untrained network and holds the
weights it draws. The seed-7 goal-series row holds every Eq. 1 goal
vector of the same replay, bit for bit, and its three-resource twin
those of the power-extended case-study replay S6.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.api import run_scenario

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _load(name: str):
    """Import one of the benchmark's scripts by path, off ``sys.path``
    (its ``trace.py`` would shadow the standard-library module)."""
    qualified = f"_benchmark_e2e_{name}"
    spec = importlib.util.spec_from_file_location(qualified, E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload",
    [
        "replay_fcfs",
        "replay_theta",
        "cold_cli",
        "sweep_queue",
        pytest.param("train_mini", marks=pytest.mark.slow),
        pytest.param("train_wide", marks=pytest.mark.slow),
    ],
)
def test_seed7_digest_equals_the_committed_reference(workload):
    reference = json.loads((E2E / "reference" / "seed7.json").read_text())
    assert reference["seed"] == 7
    expected = reference["workloads"][workload]["end_to_end"]["result_digest"]
    assert _digest(workload, 7) == expected


#: ``replay_theta`` at seed 15: fourteen ``forward_scores`` calls of the
#: untrained Theta-geometry network, digest as of weights drawn at
#: construction.
REPLAY_THETA_SEED15 = "c78b4b0aa0da1e0e04e83567dc8e8492a56e1d3ff505dc9d6097d7d82d2af7a5"


def test_replay_theta_seed15_digest_where_the_network_runs():
    assert _digest("replay_theta", 15) == REPLAY_THETA_SEED15


#: sha256 over the ``(times, goals)`` arrays of every ``goal_series()``
#: an untrained MRSch logs replaying seed-7 ``replay_theta``'s S1–S5 one
#: workload after another, and how many
#: goal vectors that is: the §III-B Eq. 1 series itself, which the
#: metric digests above see only through the decisions it sways.
REPLAY_THETA_SEED7_GOAL_SERIES = (
    "b1029c67a6a9b6ae1cf7d9f0d4715998d49c39d8cbe9f87147d6475aa8df827a",
    2250,
)


def test_replay_theta_seed7_goal_series():
    scenario = _load("workloads").WORKLOADS["replay_theta"].scenario_for(7)
    assert _goal_series(scenario["workloads"]) == REPLAY_THETA_SEED7_GOAL_SERIES


#: The same hash over the case-study replay S6 (S1 plus a per-job power
#: request) on the power-extended Theta, at seed-7 ``replay_theta``'s
#: config: three resources, so the Eq. 1 tail's adds (queued + running,
#: then the sum over resources) have an order to keep.
REPLAY_THETA_SEED7_S6_GOAL_SERIES = (
    "507355dc1d05a4afd08ecef0ed8d40cac2e6721d36ffa2eb31238d815518c498",
    450,
)


def test_replay_theta_seed7_three_resource_goal_series():
    assert _goal_series(["S6"], case_study=True) == REPLAY_THETA_SEED7_S6_GOAL_SERIES


#: Eq. 1 refreshes of the seed-7 ``replay_theta`` cell, which records
#: no timeline: one per instance whose queue holds two or more jobs, the
#: only instances where a decision reads the goal (2,250 when every
#: instance refreshed it).
REPLAY_THETA_SEED7_GOAL_REFRESHES = 172


def test_replay_theta_seed7_refreshes_the_goal_only_where_it_is_read():
    from repro.api.scenario import load_scenario
    from repro.exp.tasks import replay_cell

    scenario = _load("workloads").WORKLOADS["replay_theta"].scenario_for(7)
    (task,) = load_scenario(scenario).compile()
    assert task.seed == task.config.seed == 7
    sched, replays = replay_cell(
        task.method, task.workloads, task.config,
        train=task.train, case_study=task.case_study, extra=dict(task.extra),
    )
    assert sum(sched.goal_refreshes for _ in replays) == REPLAY_THETA_SEED7_GOAL_REFRESHES


def _goal_series(workloads, case_study: bool = False) -> tuple[str, int]:
    """sha256 over every ``goal_series()`` an untrained MRSch logs
    replaying ``workloads`` one after another at seed-7 ``replay_theta``'s
    config, and how many goal vectors that is."""
    from repro.api.scenario import load_scenario
    from repro.experiments.harness import make_method, prepare_base_trace
    from repro.sim.simulator import Simulator
    from repro.workload.suites import (
        build_case_study_workload,
        build_workload,
        powered_system,
    )

    scenario = _load("workloads").WORKLOADS["replay_theta"].scenario_for(7)
    config = load_scenario(scenario).build_config()
    base_system = config.system()
    system = powered_system(base_system) if case_study else base_system
    base = prepare_base_trace(config)
    sched = make_method("mrsch", system, config)
    digest = hashlib.sha256()
    count = 0
    for workload in workloads:
        if case_study:
            jobs, _ = build_case_study_workload(
                workload, base, base_system, seed=config.seed
            )
        else:
            jobs = build_workload(workload, base, system, seed=config.seed)
        Simulator(system, sched).run(jobs)
        times, goals = sched.goal_series()
        digest.update(times.tobytes())
        digest.update(goals.tobytes())
        count += len(times)
    return digest.hexdigest(), count


def _digest(workload: str, seed: int) -> str:
    scenario = _load("workloads").WORKLOADS[workload].scenario_for(seed)
    results = run_scenario(scenario, progress=False).results
    return _load("check").result_digest(results)
