"""Fig. 8: rBB fluctuation over a 12-hour window of the S5 workload.

Regenerates the goal-vector timeline of an MRSch run on S5 and checks
the §V-D observation: rBB stays well above 0.5 (the scalar-RL constant)
and genuinely fluctuates. Benchmarks the Eq. 1 computation.
"""

import numpy as np

from repro.core.goal import goal_vector
from repro.experiments.figures import fig8_rbb_timeline
from repro.experiments.harness import ExperimentConfig, prepare_base_trace
from repro.sched.ga import NSGA2Config
from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.workload.suites import build_workload


def test_fig8_rbb_timeline(benchmark, bench_config, save_result):
    config = ExperimentConfig(
        nodes=bench_config.nodes,
        bb_units=bench_config.bb_units,
        n_jobs=150,
        seed=bench_config.seed,
        curriculum_sets=(1, 1, 1),
        jobs_per_trainset=40,
        ga_config=NSGA2Config(population=8, generations=3),
    )
    out = fig8_rbb_timeline(config, workload="S5", train=False)
    save_result("fig8_rbb_timeline", out["text"])

    # Benchmark Eq. 1 on a realistic queue + running mix.
    system = config.system()
    base = prepare_base_trace(config)
    jobs = build_workload("S5", base, system, seed=config.seed)
    queued, running = JobQueue(system.names), RunningJobs(system.names)
    for job in jobs[:20]:
        queued.append(job)
    for job in jobs[20:40]:
        job.start_time = 0.0
        running.add(job)
    benchmark(goal_vector, queued, running, system, 100.0)

    # Shape (§V-D): under S5 the burst buffer dominates contention, so
    # rBB sits above the scalar-RL constant 0.5 and moves around.
    series = np.array(out["data"]["rBB"])
    assert series.size > 5
    assert series.mean() > 0.5
    assert series.max() - series.min() > 0.02  # it fluctuates
