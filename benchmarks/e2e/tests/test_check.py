import dataclasses
import math

import pytest

import check
from repro.exp.records import TaskResult
from repro.sim.metrics import MetricReport


def report(**changes) -> MetricReport:
    fields = dict(
        utilization={"node": 0.8, "burst_buffer": 0.4},
        avg_wait=120.0, avg_slowdown=1.5, max_wait=900.0, p95_slowdown=3.0,
        makespan=5000.0, n_jobs=40,
    )
    return MetricReport(**{**fields, **changes})


def cell(source="run", **changes) -> TaskResult:
    return TaskResult(
        key="k" * 24, method="heuristic", seed=1, workloads=("S1",),
        metrics={"S1": report(**changes)}, wall_time=0.1, source=source,
    )


def test_a_sound_cell_passes():
    assert check.cell_problems(cell(), n_jobs=40) == []
    assert check.count_failed([cell()], 40, {}) == (0, [])


@pytest.mark.parametrize(
    "doctored, reason",
    [
        (cell(avg_wait=math.nan), "avg_wait is not finite"),
        (cell(makespan=math.inf), "makespan is not finite"),
        (cell(source="cache"), "source='cache'"),
        (cell(source="checkpoint"), "source='checkpoint'"),
        (cell(n_jobs=39), "n_jobs=39"),
        (cell(utilization={"node": 1.2}), "outside [0, 1]"),
        (cell(utilization={"node": math.nan}), "utilization[node] is not finite"),
        (cell(avg_wait=-1.0), "negative"),
        (cell(avg_slowdown=0.5), "below 1"),
    ],
)
def test_a_doctored_cell_is_rejected(doctored, reason):
    problems = check.cell_problems(doctored, n_jobs=40)
    assert any(reason in p for p in problems), problems
    failed, _ = check.count_failed([doctored], 40, {})
    assert failed == 1


def test_a_cell_must_reproduce_its_earlier_digest():
    reference: dict = {}
    assert check.count_failed([cell()], 40, reference)[0] == 0
    assert check.count_failed([cell()], 40, reference)[0] == 0
    failed, reasons = check.count_failed([cell(avg_wait=121.0)], 40, reference)
    assert failed == 1 and "differ" in reasons[0]


def test_digest_ignores_cell_order_but_not_values():
    a = cell()
    b = dataclasses.replace(cell(avg_wait=1.0), key="j" * 24)
    assert check.result_digest([a, b]) == check.result_digest([b, a])
    assert check.result_digest([a]) != check.result_digest([cell(avg_wait=121.0)])


def test_tally_fails_every_cell_of_a_run_with_a_broken_invariant():
    tally = check.Tally(n_jobs=40, cells_per_run=2)
    tally.record([cell(), cell()], simulation_problems=["job 3 started early"])
    tally.crashed(RuntimeError("boom"))
    assert (tally.attempted, tally.failed) == (4, 4)


def test_simulation_invariants():
    from repro.api import make_system
    from repro.sched.fcfs import FCFSScheduler
    from repro.sim.simulator import Simulator
    from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

    jobs = generate_theta_trace(ThetaTraceConfig(total_nodes=32, n_jobs=20), seed=3)
    system = make_system("mini_theta", nodes=32, bb_units=16)
    result = Simulator(system, FCFSScheduler()).run(jobs)
    assert check.simulation_problems(jobs, result) == []

    result.jobs[0].start_time = result.jobs[0].submit_time - 1.0
    result.jobs[1].end_time = math.inf
    dropped = result.jobs.pop()
    problems = check.simulation_problems(jobs, result)
    assert any("19 jobs out for 20 in" in p for p in problems)
    assert any("started before" in p for p in problems)
    assert any("no finite end" in p for p in problems)
    assert dropped.job_id not in [j.job_id for j in result.jobs]
