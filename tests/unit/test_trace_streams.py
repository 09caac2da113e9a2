"""Trace generation draws the same streams it always drew.

``build_workload`` draws its burst-buffer sizes as
``pool[rng.integers(0, pool.size)]`` and ``_sample_arrivals`` reads its
diurnal profile as Python floats; both are pinned here to the traces
the ``rng.choice`` / NumPy-scalar forms generated (the digests below).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster.resources import SystemConfig
from repro.workload.suites import build_case_study_workload, build_workload
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace


def trace_digest(jobs) -> str:
    """sha256 over every job's id, times (exact hex) and requests."""
    h = hashlib.sha256()
    for job in jobs:
        row = (
            job.job_id,
            float(job.submit_time).hex(),
            float(job.runtime).hex(),
            float(job.walltime).hex(),
            sorted(job.requests.items()),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


def pinned_traces() -> dict[str, list]:
    """The traces the digests pin, by name."""
    mini = SystemConfig.mini_theta(nodes=128, bb_units=64)
    base = generate_theta_trace(ThetaTraceConfig(n_jobs=400), seed=3)
    traces = {
        "mini": base,
        "theta": generate_theta_trace(
            ThetaTraceConfig(total_nodes=4392, n_jobs=300, mean_interarrival=3000),
            seed=11,
        ),
        "flat": generate_theta_trace(
            ThetaTraceConfig(n_jobs=200, diurnal=False), seed=5
        ),
    }
    for name in ("S1", "S2", "S3", "S4", "S5"):
        traces[name] = build_workload(name, base, mini, seed=3)
    traces["S8"], _ = build_case_study_workload("S8", base, mini, seed=3)
    return traces


#: digests of :func:`pinned_traces` as generated before the stream rewrite
PINNED = {
    "mini": "9755d0be34be871411e5d2a5420fe1349923a428816cf7c88ede665909b11d94",
    "theta": "938b1dde347933541cbf1c9ae7bea36c8c4435d14f856dc52040f7c73ec8dea8",
    "flat": "c1cfd4f5c1dbc418efafc99710162b21c50c59e12bdb1635a15ed930a61eaf30",
    "S1": "c1dcdd3bdad4b76034d564fbced04cc7c5178094b22bd7c2f41d2d6888c0e868",
    "S2": "4af486ec8d3e42ed16f32275ad5b7b33a4f35125d071a71e26cbc89cc2f181bb",
    "S3": "fd3f056d11c4887723b5dccbd099e3837c6ef3fcf5defd1e2f6075ebb64fb4fa",
    "S4": "a7025c421371e74d6307a0a4a02cf6fc6472915ba8d5eab830cf0bdd7f241d33",
    "S5": "0304eb946e9c929a58386bb254562f50052bfc62fb26685a45198bc09b14df55",
    "S8": "fb0aa4fd310d34b0d38a91ee29830a09bf3aa1ae6c97c92c58b482748947d476",
}


@pytest.mark.parametrize("size", [1, 37, 1_000, 2**20 + 3])
def test_integers_index_draws_the_choice_stream(size):
    """``pool[rng.integers(0, n)]`` ≡ ``rng.choice(pool)``, interleaved
    with ``random()`` the way ``build_workload`` interleaves them."""
    pool = np.arange(size, dtype=float) * 0.5
    a = np.random.default_rng(2024)
    b = np.random.default_rng(2024)
    for _ in range(200):
        assert a.random() == b.random()
        assert a.choice(pool) == pool[b.integers(0, pool.size)]
    assert a.bit_generator.state == b.bit_generator.state


def test_generated_traces_equal_the_pinned_digests():
    got = {name: trace_digest(jobs) for name, jobs in pinned_traces().items()}
    assert got == PINNED
