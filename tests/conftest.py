"""Shared fixtures: small deterministic systems, traces and workloads.

Also applies the suite's marker policy: everything under
``tests/integration/`` is auto-marked ``integration``, and tests marked
``slow`` (full-grid / training-heavy) are deselected by default via the
``addopts`` in ``pyproject.toml`` — run them with ``-m slow`` or
``-m ""``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.resources import BURST_BUFFER, NODE, ResourceSpec, SystemConfig
from repro.workload.job import Job
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "tests/integration/" in item.nodeid.replace("\\", "/"):
            item.add_marker(pytest.mark.integration)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_system() -> SystemConfig:
    """A 2-resource system small enough for exhaustive checks."""
    return SystemConfig(
        resources=(
            ResourceSpec(NODE, 16, "node"),
            ResourceSpec(BURST_BUFFER, 8, "TB"),
        )
    )


@pytest.fixture
def mini_system() -> SystemConfig:
    return SystemConfig.mini_theta(nodes=32, bb_units=16)


def make_job(
    job_id: int = 1,
    submit: float = 0.0,
    runtime: float = 100.0,
    walltime: float | None = None,
    nodes: int = 1,
    bb: int = 0,
    **extra: int,
) -> Job:
    """Concise job constructor for tests."""
    requests = {NODE: nodes, BURST_BUFFER: bb, **extra}
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        walltime=walltime if walltime is not None else runtime,
        requests=requests,
    )


@pytest.fixture
def tiny_trace(tiny_system) -> list[Job]:
    """Ten deterministic jobs with staggered arrivals."""
    jobs = []
    for i in range(10):
        jobs.append(
            make_job(
                job_id=i + 1,
                submit=i * 50.0,
                runtime=200.0 + 30 * (i % 3),
                walltime=400.0,
                nodes=1 + (i % 4) * 2,
                bb=(i % 3),
            )
        )
    return jobs


@pytest.fixture
def theta_trace() -> list[Job]:
    cfg = ThetaTraceConfig(total_nodes=32, n_jobs=120, mean_interarrival=300.0)
    return generate_theta_trace(cfg, seed=7)


@pytest.fixture
def make_decision_trace():
    """Factory for small synthetic :class:`repro.eval.trace.DecisionTrace`s.

    Deterministic in ``seed``; every decision has all window slots valid
    and the logged action set to the slot a plain FCFS policy would pick
    (slot 0) unless ``actions`` is given.
    """
    from repro.eval.trace import EXTRA_FEATURES, DecisionTrace

    def _make(
        n: int = 6,
        window: int = 4,
        resources: tuple[str, ...] = ("node", "burst_buffer"),
        seed: int = 0,
        actions=None,
        **meta_overrides,
    ) -> "DecisionTrace":
        rng = np.random.default_rng(seed)
        r = len(resources)
        state_dim = (r + 2) * window + 8
        goals = rng.uniform(0.1, 1.0, size=(n, r))
        goals /= goals.sum(axis=1, keepdims=True)
        feats = np.zeros((n, window, r + len(EXTRA_FEATURES)))
        feats[:, :, :r] = rng.uniform(0.05, 0.9, size=(n, window, r))
        feats[:, :, r] = rng.uniform(100.0, 5000.0, size=(n, window))  # walltime
        feats[:, :, r + 1] = rng.uniform(0.0, 900.0, size=(n, window))  # queued
        feats[:, :, r + 2] = 1.0  # everything fits
        meta = {
            "task_key": "testtask",
            "workload": "S1",
            "method": "heuristic",
            "seed": seed,
            "resources": list(resources),
            "capacities": [16.0] * r,
            "feature_names": [*(f"req_frac:{x}" for x in resources), *EXTRA_FEATURES],
            "window_size": window,
            "state_dim": state_dim,
            "n_measurements": r,
            "slot_dim": r + 2,
            "prior_weight": 0.0,
            **meta_overrides,
        }
        return DecisionTrace(
            states=rng.normal(size=(n, state_dim)),
            measurements=rng.uniform(size=(n, r)),
            goals=goals,
            masks=np.ones((n, window), dtype=bool),
            priors=np.zeros((n, window)),
            scores=np.full((n, window), np.nan),
            actions=(
                np.zeros(n, dtype=np.int64)
                if actions is None
                else np.asarray(actions, dtype=np.int64)
            ),
            times=np.arange(n, dtype=float) * 60.0,
            job_ids=np.arange(n * window, dtype=np.int64).reshape(n, window),
            job_features=feats,
            meta=meta,
        )

    return _make
