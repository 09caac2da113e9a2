#!/usr/bin/env python
"""Train MRSch and compare it against all three baselines on burst-buffer
contention (the paper's core two-resource experiment, Figs 5–6).

The comparison grid is one facade call: every method is instantiated by
registry name, curriculum-trained if it learns (has
``finish_episode``), and evaluated — frozen — on the S4 workload (heavy
burst-buffer contention). A second, single run exposes the MRSch
goal-vector log showing the §V-D dynamic prioritizing at work.

Run:  python examples/burst_buffer_scheduling.py          (~1–2 min)
"""

from repro.api import SCHEDULERS, compare, run_single
from repro.experiments.harness import ExperimentConfig

WORKLOAD = "S4"


def main() -> None:
    config = ExperimentConfig(
        nodes=128,
        bb_units=64,
        n_jobs=150,
        curriculum_sets=(2, 2, 2),
        jobs_per_trainset=60,
        seed=7,
    )
    system = config.system()
    print(f"Evaluating on {WORKLOAD}: {config.n_jobs} jobs, "
          f"{system.capacity('node')} nodes, "
          f"{system.capacity('burst_buffer')} TB burst buffer\n")

    methods = ["mrsch", "scalar_rl", "optimization", "heuristic"]
    reports = compare([WORKLOAD], methods, config, train=True)
    for method in methods:
        m = reports[WORKLOAD][method]
        learns = hasattr(SCHEDULERS.get(method).build(system), "finish_episode")
        trained = "(curriculum-trained)" if learns else "(no training)"
        print(
            f"{method:>12} {trained:>20}:  node {m.node_util:5.1%}  "
            f"bb {m.bb_util:5.1%}  wait {m.avg_wait_hours:5.2f} h  "
            f"slowdown {m.avg_slowdown:5.2f}"
        )

    # Re-run MRSch alone to inspect the §V-D goal dynamics.
    _, scheduler = run_single(WORKLOAD, "mrsch", config, train=True)
    _, goals = scheduler.goal_series()
    bb = goals[:, system.names.index("burst_buffer")]
    print(
        f"\nrBB over the MRSch run: min {bb.min():.2f}, "
        f"mean {bb.mean():.2f}, max {bb.max():.2f} "
        f"(scalar RL is fixed at 0.50)"
    )


if __name__ == "__main__":
    main()
