"""The six benchmark workloads: what runs, how big, and why.

Every workload is a plain scenario mapping — the program receives
nothing else — and ``--seed`` becomes its ``seed``. README.md has the
table with the measured layer shares; BENCHMARK.json repeats the one-line
reasons.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Share of ISSUE 11's job and cell counts that the replay and sweep
#: workloads run, so that one run (set-up, warm-up and at least five timed
#: iterations) fits the driver's budget. Fixed here, never per run.
#: The two training workloads cost 128 optimiser batches per episode
#: whatever the job count, so they are cut in episodes (``train_mini``:
#: one job set per curriculum phase, the minimum the harness accepts)
#: and geometry (``train_wide``: a sixteenth of Theta) instead.
SCALE = 0.15

_MINI = {"name": "mini_theta", "nodes": 128, "bb_units": 64}
_TINY = {"name": "mini_theta", "nodes": 32, "bb_units": 16}
_SIXTEENTH_THETA = {"name": "mini_theta", "nodes": 275, "bb_units": 81}


def _scaled(count: int) -> int:
    return max(1, round(count * SCALE))


@dataclass(frozen=True)
class Workload:
    name: str
    #: scenario mapping without its ``seed``
    scenario: dict
    #: what ``units_per_s`` counts, and how many one run processes
    unit: str
    units: int
    #: "inline" (``run_scenario`` in-process, one cell), "queue"
    #: (``run_scenario(queue_dir=..., n_workers=2)``) or "cli" (a fresh
    #: ``python -m repro run`` per iteration)
    kind: str = "inline"

    def scenario_for(self, seed: int) -> dict:
        return {**self.scenario, "seed": int(seed)}

    @property
    def cells(self) -> int:
        """Cells one run executes (every inline workload is one cell)."""
        return self.units if self.unit == "cells" else 1

    @property
    def n_jobs(self) -> int:
        """Jobs every report of this workload must account for."""
        return self.scenario["config"]["n_jobs"]


def _workload(name, unit, units, kind="inline", **scenario) -> Workload:
    return Workload(name, {"name": name, **scenario}, unit, units, kind)


WORKLOADS = {
    w.name: w
    for w in (
        _workload(
            "train_mini", "jobs", 3 * 60 + 3 * 150,
            methods=["mrsch"], workloads=["S1", "S3", "S5"], train=True,
            system=_MINI,
            config={"curriculum_sets": [1, 1, 1], "jobs_per_trainset": 60,
                    "n_jobs": 150, "window_size": 10},
        ),
        _workload(
            "train_wide", "jobs", 3 * 40 + 60,
            methods=["mrsch"], workloads=["S3"], train=True,
            system=_SIXTEENTH_THETA,
            config={"curriculum_sets": [1, 1, 1], "jobs_per_trainset": 40,
                    "n_jobs": 60, "window_size": 10},
        ),
        _workload(
            "replay_theta", "jobs", 5 * _scaled(1500),
            methods=["mrsch"], workloads=["S1", "S2", "S3", "S4", "S5"],
            train=False, system={"name": "theta"},
            # A lightly loaded machine: about one decision per job on every
            # seed. At the default inter-arrival the decision count of the
            # same 1,500 jobs ran from 396 to 1,272 between seeds, and the
            # wall with it.
            config={"n_jobs": _scaled(1500), "window_size": 10,
                    "mean_interarrival": 3000},
        ),
        _workload(
            "replay_fcfs", "jobs", _scaled(8000),
            methods=["heuristic"], workloads=["S3"], train=False,
            system=_MINI,
            config={"n_jobs": _scaled(8000), "mean_interarrival": 55},
        ),
        _workload(
            "sweep_queue", "cells", _scaled(1024), kind="queue",
            methods=["heuristic"], workloads=["S1"], train=False,
            system=_TINY, replications=_scaled(1024),
            config={"n_jobs": 40, "window_size": 5},
        ),
        _workload(
            "cold_cli", "cells", 2, kind="cli",
            methods=["heuristic", "mrsch"], workloads=["S1", "S3"], train=False,
            system=_TINY,
            config={"n_jobs": 40},
        ),
    )
}
