"""Cell configurations shared by the integration tests."""

from __future__ import annotations

import dataclasses

from repro.exp import grid_tasks
from repro.experiments.harness import ExperimentConfig

S1_TO_S5 = ("S1", "S2", "S3", "S4", "S5")

#: a loaded mini-Theta (jobs queue, windows fill) with a curriculum short
#: enough for tier-1
MINI = ExperimentConfig(
    nodes=32, bb_units=16, n_jobs=40, window_size=5, seed=41,
    mean_interarrival=150.0, curriculum_sets=(1, 1, 1), jobs_per_trainset=20,
)
#: the paper's machine — the [11410, 1] state — over a short trace that
#: arrives fast enough for windows to hold more than one job
THETA = ExperimentConfig(
    nodes=4392, bb_units=1290, n_jobs=40, window_size=10, seed=41,
    mean_interarrival=30.0, system_name="theta",
)


def cell(config, method="mrsch", workloads=S1_TO_S5, extra=(), **kwargs):
    """The one task of a one-method grid over ``workloads``."""
    (task,) = grid_tasks([method], list(workloads), config, **kwargs)
    return dataclasses.replace(task, extra=tuple(extra))
