"""The lazy ResourcePool is the eager one, observable for observable.

``ResourcePool`` answers EASY's order-statistic queries from its running
grants and builds the per-unit ``busy`` / ``est_free`` arrays only when
a reader asks for them, replaying a mutation log. The oracle is the
eager pool it replaced (``tests/unit/_pool_reference.py``), which
rewrites the arrays at every mutation and sorts them for every query.
Hypothesis drives both through the same allocate / release / clock
histories, interleaved with unit reads, tracker register / drain /
unregister and snapshot / restore taken in the middle of a log, on a
tiny, a mini-Theta and a full Theta pool; unit arrays, unit state,
snapshots, tracker chunks, ``earliest_fit_time``, ``free_units_at`` and
``free_vector_at`` must all be equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.resources import BURST_BUFFER, NODE, ResourcePool, SystemConfig
from tests.conftest import make_job
from tests.unit._pool_reference import EagerResourcePool

SYSTEMS = {
    "tiny": SystemConfig.mini_theta(nodes=32, bb_units=16),
    "mini": SystemConfig.mini_theta(nodes=128, bb_units=64),
    "theta": SystemConfig.theta(),
}

#: Allocations and releases dominate. A registered tracker makes the
#: pool apply every mutation at once, so registering is rare and
#: unregistering common: most of a history runs with a log to apply.
_KINDS = (
    ["alloc"] * 8 + ["release"] * 5 + ["track", "reset"]
    + ["tick", "read", "drain"] * 2 + ["untrack", "snapshot", "restore"] * 3
)


def _ops(max_size: int):
    return st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.integers(0, 400),  # node request, per mille of capacity
            st.integers(0, 400),  # burst-buffer request, per mille
            # Shared walltimes and clock steps make grants free at the
            # same estimated time, so sorted-time entries merge and split.
            st.sampled_from([60.0, 300.0, 1800.0]) | st.floats(1.0, 5000.0),
            st.sampled_from([0.0, 0.0, 60.0, 300.0]) | st.floats(0.0, 900.0),
        ),
        min_size=1,
        max_size=max_size,
    )


def _scaled(system: SystemConfig, name: str, per_mille: int) -> int:
    return system.capacity(name) * per_mille // 1000


def _assert_units_equal(lazy, eager, now: float) -> None:
    for name in lazy.names:
        for got, want in zip(lazy.unit_arrays(name), eager.unit_arrays(name)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(lazy.unit_state(name, now), eager.unit_state(name, now)):
            np.testing.assert_array_equal(got, want)


def _assert_snapshots_equal(got: dict, want: dict) -> None:
    for key in ("busy", "est_free"):
        assert got[key].keys() == want[key].keys()
        for name in want[key]:
            np.testing.assert_array_equal(got[key][name], want[key][name])
    assert got["free"] == want["free"]
    np.testing.assert_array_equal(got["free_arr"], want["free_arr"])
    assert list(got["allocations"]) == list(want["allocations"])
    for jid, grant in want["allocations"].items():
        assert list(got["allocations"][jid]) == list(grant)
        for name, idx in grant.items():
            np.testing.assert_array_equal(got["allocations"][jid][name], idx)


def _assert_chunks_equal(got, want) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None and list(got) == list(want)
    for name, chunks in want.items():
        assert len(got[name]) == len(chunks)
        for (g_idx, g_busy, g_est), (w_idx, w_busy, w_est) in zip(got[name], chunks):
            np.testing.assert_array_equal(g_idx, w_idx)
            assert g_busy == w_busy and g_est == w_est


def _assert_queries_equal(lazy, eager, system, now, node_pm, bb_pm, advance) -> None:
    assert lazy.running_jobs() == eager.running_jobs()
    np.testing.assert_array_equal(lazy.free_vector(), eager.free_vector())
    probe = make_job(
        job_id=10**9,
        nodes=max(1, _scaled(system, NODE, node_pm * 5 // 2)),
        bb=_scaled(system, BURST_BUFFER, bb_pm * 5 // 2),
    )
    assert lazy.can_fit(probe) == eager.can_fit(probe)
    shadow = lazy.earliest_fit_time(probe, now)
    assert shadow == eager.earliest_fit_time(probe, now)
    # Probe before now (free units still count as free), at a shadow
    # time that lands exactly on a grant's estimated free time, and after.
    for when in (now - 1.0, now, shadow, now + advance):
        for name in system.names:
            assert lazy.free_units_at(name, when, now) == eager.free_units_at(
                name, when, now
            )
        np.testing.assert_array_equal(
            lazy.free_vector_at(when, now), eager.free_vector_at(when, now)
        )


def _check_lazy_equals_eager(system, op_list, log_limit, monkeypatch) -> None:
    monkeypatch.setattr(ResourcePool, "_LOG_LIMIT", log_limit)
    lazy, eager = ResourcePool(system), EagerResourcePool(system)
    trackers: list[tuple] = []  # (lazy tracker, eager tracker)
    saved = None  # (lazy snapshot, eager snapshot, running jobs)
    running: list = []
    now = 0.0
    for step, (kind, node_pm, bb_pm, walltime, advance) in enumerate(op_list):
        now += advance
        if kind == "alloc":
            job = make_job(
                job_id=step,
                nodes=max(1, _scaled(system, NODE, node_pm)),
                bb=_scaled(system, BURST_BUFFER, bb_pm),
                runtime=walltime,
                walltime=walltime,
            )
            assert lazy.can_fit(job) == eager.can_fit(job)
            if eager.can_fit(job):
                lazy.allocate(job, now)
                eager.allocate(job, now)
                running.append(job)
        elif kind == "release" and running:
            job = running.pop(node_pm % len(running))
            lazy.release(job)
            eager.release(job)
        elif kind == "read":
            _assert_units_equal(lazy, eager, now)
        elif kind == "track":
            trackers.append((lazy.register_tracker(), eager.register_tracker()))
        elif kind == "drain" and trackers:
            got, want = trackers[node_pm % len(trackers)]
            _assert_chunks_equal(got.drain(), want.drain())
        elif kind == "untrack" and trackers:
            got, want = trackers.pop(node_pm % len(trackers))
            lazy.unregister_tracker(got)
            eager.unregister_tracker(want)
        elif kind == "snapshot":
            saved = (lazy.snapshot(), eager.snapshot(), list(running))
            _assert_snapshots_equal(saved[0], saved[1])
        elif kind == "restore" and saved is not None:
            lazy.restore(saved[0])
            eager.restore(saved[1])
            running = list(saved[2])
        elif kind == "reset":
            lazy.reset()
            eager.reset()
            running = []
        _assert_queries_equal(lazy, eager, system, now, node_pm, bb_pm, advance)
    for got, want in trackers:
        _assert_chunks_equal(got.drain(), want.drain())
    _assert_units_equal(lazy, eager, now)
    _assert_snapshots_equal(lazy.snapshot(), eager.snapshot())
    lazy.reset()
    eager.reset()
    _assert_units_equal(lazy, eager, now)
    assert lazy.running_jobs() == []


#: 1 applies every mutation at once; 3 applies the log mid-history
#: unread; the pool's own limit leaves it to the readers
_LOG_LIMITS = st.sampled_from([1, 3, ResourcePool._LOG_LIMIT, ResourcePool._LOG_LIMIT])


def _history(*kinds: str) -> list[tuple]:
    """A scripted history: each step a 40%-of-capacity request (the
    probe asks for the whole machine, so its shadow time is a busy
    unit's), a 300 s walltime and a 60 s clock step."""
    return [(kind, 400, 400, 300.0, 60.0) for kind in kinds]


@pytest.mark.parametrize("size", sorted(SYSTEMS))
@settings(max_examples=80, deadline=None)
@given(op_list=_ops(40), log_limit=_LOG_LIMITS)
# A log pending across each transition that must drop or apply it.
@example(op_list=_history("snapshot", "alloc", "restore", "read"), log_limit=1 << 14)
@example(op_list=_history("alloc", "alloc", "reset", "alloc", "read"), log_limit=1 << 14)
@example(op_list=_history("alloc", "release", "alloc", "snapshot"), log_limit=1 << 14)
@example(op_list=_history("alloc", "snapshot", "restore"), log_limit=1 << 14)
@example(
    op_list=_history("alloc", "alloc", "release", "track", "drain", "alloc", "drain"),
    log_limit=1 << 14,
)
def test_lazy_pool_equals_the_eager_pool(size, op_list, log_limit):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_lazy_equals_eager(SYSTEMS[size], op_list, log_limit, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("size", sorted(SYSTEMS))
@settings(max_examples=1000, deadline=None)
@given(op_list=_ops(120), log_limit=_LOG_LIMITS)
def test_lazy_pool_equals_the_eager_pool_thorough(size, op_list, log_limit):
    """The same property at 1,000 examples and longer histories (the
    ``slow`` tier, which CI runs on every push)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_lazy_equals_eager(SYSTEMS[size], op_list, log_limit, monkeypatch)


def test_an_unread_pool_writes_no_unit():
    """Mutations wait in the log until a reader asks for the layout; the
    order-statistic queries answer without it."""
    pool = ResourcePool(SystemConfig.mini_theta(nodes=32, bb_units=16))
    first = make_job(job_id=1, nodes=8, bb=4, walltime=500.0)
    second = make_job(job_id=2, nodes=8, bb=0, walltime=200.0)
    pool.allocate(first, 0.0)
    pool.allocate(second, 100.0)
    pool.release(first)
    assert not pool._busy[NODE].any() and len(pool._log) == 3
    assert pool.earliest_fit_time(make_job(job_id=3, nodes=30), 150.0) == 300.0
    assert pool.free_units_at(NODE, 300.0, 150.0) == 32
    busy, est = pool.unit_arrays(NODE)
    assert pool._log == []
    assert busy.tolist() == [False] * 8 + [True] * 8 + [False] * 16
    assert est[8:16].tolist() == [300.0] * 8
