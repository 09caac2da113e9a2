"""The ``prior`` method is guided MRSch with the network's say taken away.

Guided MRSch ranks window slots by the feasibility/age prior and adds
DFP scores capped at ``DFP_TIEBREAK_SCALE``. With every score zero the
guided pick is the prior's arg-max, which is all ``PriorScheduler``
computes — so the two must start every job at the same instant, on
every workload, whether MRSch replays its episodes one at a time or as
lockstep lanes of one ``BatchedSimulator``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mrsch import MRSchScheduler
from repro.experiments.harness import ExperimentConfig, make_method, prepare_base_trace
from repro.sim.batched import BatchedSimulator
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload

S1_TO_S5 = ("S1", "S2", "S3", "S4", "S5")


def _config(seed: int) -> ExperimentConfig:
    """A loaded mini-Theta whose full windows leave decisions open: on it
    the untrained network's own scores overrule the prior."""
    return ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=100, window_size=10, seed=seed,
        mean_interarrival=60.0,
    )


def _starts(result) -> list[tuple[int, float]]:
    return sorted((job.job_id, job.start_time) for job in result.jobs)


@pytest.fixture
def zero_scores(monkeypatch):
    """Guided MRSch whose network answers zeros, on the B=1 and batched paths."""

    def zeros(self, inputs):
        return np.zeros(self.window_size)

    def batch(self):
        return self.agent, lambda states, meas, goals: np.zeros(
            (states.shape[0], self.window_size)
        )

    monkeypatch.setattr(MRSchScheduler, "score_decision", zeros)
    monkeypatch.setattr(MRSchScheduler, "batch_scorer", batch)


@pytest.mark.parametrize("seed", [41, 7])
def test_prior_method_equals_zero_score_guided_mrsch(seed, zero_scores):
    config = _config(seed)
    system = config.system()
    base = prepare_base_trace(config)
    jobsets = [build_workload(w, base, system, seed=seed) for w in S1_TO_S5]

    prior = [
        _starts(Simulator(system, make_method("prior", system, config)).run(jobs))
        for jobs in jobsets
    ]
    scored = 0
    sequential = []
    for jobs in jobsets:
        sched = make_method("mrsch", system, config)
        sequential.append(_starts(Simulator(system, sched).run(jobs)))
        scored += sched.decisions_scored
        assert sched.decisions_overruled == 0
    batched = BatchedSimulator.for_scheduler(
        system, make_method("mrsch", system, config), len(jobsets)
    )
    lockstep = [_starts(r) for r in batched.run(jobsets)]

    assert sequential == prior
    assert lockstep == prior
    # teeth: the network was asked, and lanes were stacked
    assert scored > 0 and batched.batch_calls > 0
