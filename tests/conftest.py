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
