"""Unit tests for the storage seam (repro.dist.store).

Covers the errno taxonomy, the seeded-backoff retry schedule (property
tests pin determinism and boundedness), CRC32 line/payload sealing, and
scripted IO faults travelling the real retry path.
"""

from __future__ import annotations

import errno
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.store import (
    PERMANENT_ERRNOS,
    TRANSIENT_ERRNOS,
    RetryPolicy,
    Store,
    StoreUnavailable,
    classify_errno,
)
from repro.utils.durable import (
    CHECKSUM_KEY,
    seal_json_payload,
    seal_line,
    unseal_line,
    verify_sealed_payload,
)
from tests._dist_faults import FaultInjector, FaultPlan, FaultStore


def quiet_store(plan: FaultPlan | None = None, **kwargs) -> tuple[Store, list]:
    """A store that never actually sleeps; returns (store, recorded sleeps)."""
    sleeps: list[float] = []
    kwargs.setdefault("retry", RetryPolicy(seed="test-worker"))
    if plan is None:
        store = Store(sleep=sleeps.append, **kwargs)
    else:
        store = FaultStore(FaultInjector(plan), sleep=sleeps.append, **kwargs)
    return store, sleeps


class TestErrnoClassification:
    @pytest.mark.parametrize(
        ("code", "kind"),
        [
            (errno.EIO, "transient"),
            (errno.ESTALE, "transient"),
            (errno.ETIMEDOUT, "transient"),
            (errno.EAGAIN, "transient"),
            (errno.EBUSY, "transient"),
            (errno.EINTR, "transient"),
            (errno.ENOSPC, "permanent"),
            (errno.EROFS, "permanent"),
            (errno.EDQUOT, "permanent"),
            (errno.ENOENT, "semantic"),
            (errno.EEXIST, "semantic"),
            (errno.EISDIR, "semantic"),
            (errno.EACCES, "semantic"),
            (None, "semantic"),
        ],
    )
    def test_table(self, code, kind):
        assert classify_errno(code) == kind

    def test_transient_and_permanent_are_disjoint(self):
        assert not (TRANSIENT_ERRNOS & PERMANENT_ERRNOS)


class TestRetryPolicy:
    def test_schedule_is_reproducible_per_seed(self):
        a = RetryPolicy(seed="worker-1")
        assert a.delays() == RetryPolicy(seed="worker-1").delays()
        assert a.delays() != RetryPolicy(seed="worker-2").delays()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.text(max_size=24),
        max_retries=st.integers(min_value=0, max_value=8),
        base=st.floats(min_value=0.001, max_value=0.5),
        cap=st.floats(min_value=0.5, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_is_deterministic_and_bounded(
        self, seed, max_retries, base, cap, jitter
    ):
        policy = RetryPolicy(
            max_retries=max_retries, base_delay_s=base, max_delay_s=cap,
            jitter=jitter, seed=seed,
        )
        delays = policy.delays()
        # Deterministic: same seed, same schedule, every time.
        assert delays == policy.delays()
        assert len(delays) == max_retries
        # Bounded: each delay under the cap (plus maximal jitter), the
        # total under the closed-form upper bound.
        assert all(0.0 <= d <= cap * (1.0 + jitter) + 1e-9 for d in delays)
        assert sum(delays) <= policy.max_total_wait_s() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.text(max_size=24))
    def test_store_sleeps_exactly_the_policy_schedule(self, seed):
        """The live retry loop and the published schedule agree."""
        import tempfile
        from pathlib import Path

        policy = RetryPolicy(max_retries=3, seed=seed)
        plan = FaultPlan(
            io_faults=[{"op": "read", "errno": "EIO", "count": 0}]
        )
        store, sleeps = quiet_store(plan, retry=policy)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "f.json"
            target.write_text("{}")
            with pytest.raises(StoreUnavailable):
                store.read_text(target)
        assert sleeps == policy.delays()


class TestSealing:
    def test_line_roundtrip(self):
        sealed = seal_line('{"key": "k1"}')
        body, verdict = unseal_line(sealed)
        assert body == '{"key": "k1"}' and verdict is True

    def test_corrupted_line_fails_verdict(self):
        sealed = seal_line('{"key": "k1"}')
        body, verdict = unseal_line(sealed.replace("k1", "kX"))
        assert verdict is False

    def test_unsealed_line_is_legacy(self):
        body, verdict = unseal_line('{"key": "k1"}')
        assert body == '{"key": "k1"}' and verdict is None

    def test_payload_roundtrip_and_tamper_detection(self):
        payload = {"method": "heuristic", "seed": 3}
        sealed = seal_json_payload(payload)
        assert CHECKSUM_KEY in sealed
        body, verdict = verify_sealed_payload(sealed)
        assert body == payload and verdict is True
        sealed["seed"] = 4
        _, verdict = verify_sealed_payload(sealed)
        assert verdict is False

    def test_unsealed_payload_is_legacy(self):
        _, verdict = verify_sealed_payload({"method": "heuristic"})
        assert verdict is None

    def test_sealing_is_stable_under_resealing(self):
        payload = {"a": 1}
        assert seal_json_payload(seal_json_payload(payload)) == (
            seal_json_payload(payload)
        )


class TestStoreRetry:
    def test_transient_fault_is_retried_to_success(self, tmp_path):
        plan = FaultPlan(io_faults=[{"op": "write", "errno": "EIO", "count": 2}])
        store, sleeps = quiet_store(plan)
        store.atomic_write_json(tmp_path / "f.json", {"ok": True})
        assert json.loads((tmp_path / "f.json").read_text()) == {"ok": True}
        assert len(sleeps) == 2  # two backoffs, third attempt landed

    def test_exhausted_retries_escalate(self, tmp_path):
        plan = FaultPlan(io_faults=[{"op": "write", "errno": "ESTALE", "count": 0}])
        store, _ = quiet_store(plan, retry=RetryPolicy(max_retries=2, seed="x"))
        with pytest.raises(StoreUnavailable) as exc_info:
            store.atomic_write_json(tmp_path / "f.json", {})
        assert not exc_info.value.permanent
        assert exc_info.value.attempts == 3  # initial + 2 retries
        assert "ESTALE" in str(exc_info.value)

    def test_permanent_fault_escalates_immediately(self, tmp_path):
        plan = FaultPlan(io_faults=[{"op": "append", "errno": "ENOSPC", "count": 0}])
        store, sleeps = quiet_store(plan)
        with pytest.raises(StoreUnavailable) as exc_info:
            store.fsync_append(tmp_path / "j.jsonl", "line")
        assert exc_info.value.permanent
        assert sleeps == []  # no retry budget burned on a full volume

    def test_semantic_errors_propagate_untouched(self, tmp_path):
        store, sleeps = quiet_store()
        with pytest.raises(FileNotFoundError):
            store.read_text(tmp_path / "missing.json")
        assert sleeps == []

    def test_link_lost_race_is_not_an_error(self, tmp_path):
        store, _ = quiet_store()
        for owner in ("a", "b"):
            (tmp_path / f"{owner}.json").write_text(json.dumps({"o": owner}))
        assert store.link(tmp_path / "a.json", tmp_path / "lease.json")
        assert not store.link(tmp_path / "b.json", tmp_path / "lease.json")
        assert json.loads((tmp_path / "lease.json").read_text()) == {"o": "a"}
        # A first attempt meeting its own source's inode still lost: only
        # a retry may count an existing link as its own.
        assert not store.link(tmp_path / "a.json", tmp_path / "lease.json")

    def test_a_retried_link_that_landed_is_a_win(self, tmp_path, monkeypatch):
        """The first attempt links and then reports EIO: the retry meets
        its own link and wins; another file's link still loses."""
        store, sleeps = quiet_store()
        real_link = os.link
        calls = []

        def flaky_link(src, dst):
            calls.append(dst)
            real_link(src, dst)
            if len(calls) == 1:
                raise OSError(errno.EIO, "reply lost after the link landed")

        monkeypatch.setattr(os, "link", flaky_link)
        (tmp_path / "a.json").write_text("{}")
        (tmp_path / "b.json").write_text("{}")
        assert store.link(tmp_path / "a.json", tmp_path / "lease.json")
        assert len(calls) == 2 and len(sleeps) == 1
        assert not store.link(tmp_path / "b.json", tmp_path / "lease.json")
        assert os.path.samefile(tmp_path / "a.json", tmp_path / "lease.json")

    def test_touch_sets_the_mtime(self, tmp_path):
        store, _ = quiet_store()
        path = tmp_path / "token.json"
        path.write_text("{}")
        store.touch(path, now=1000.0)
        assert store.stat(path).st_mtime == 1000.0 == store.stat_mtime(path)
        store.touch(path)
        assert abs(store.stat(path).st_mtime - time.time()) < 60.0

    def test_metrics_count_retries(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(io_faults=[{"op": "write", "errno": "EIO", "count": 1}])
        store, _ = quiet_store(plan, metrics=registry)
        store.atomic_write_json(tmp_path / "f.json", {})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["store.retries"] == 1

    def test_slow_io_fault_only_delays(self, tmp_path):
        plan = FaultPlan(io_faults=[{"op": "read", "delay_s": 0.25, "count": 1}])
        store, sleeps = quiet_store(plan)
        (tmp_path / "f.json").write_text('{"a": 1}')
        assert store.read_json(tmp_path / "f.json") == {"a": 1}
        assert sleeps == [0.25]


class TestTornAppendRecovery:
    def test_torn_append_retry_never_merges_fragment_into_record(self, tmp_path):
        """The newline guard strands the fragment on its own line."""
        plan = FaultPlan(
            io_faults=[{"op": "append", "errno": "EIO", "count": 1, "torn": True}]
        )
        store, _ = quiet_store(plan)
        path = tmp_path / "j.jsonl"
        line = seal_line(json.dumps({"key": "k1", "pad": "x" * 64}))
        store.fsync_append(path, line)
        raw_lines = [ln for ln in path.read_text().split("\n") if ln]
        # The full sealed record landed intact on its own line…
        assert line in raw_lines
        # …and the stranded prefix is a *separate* line that fails its
        # checksum (or has none), never an extension of the good record.
        fragments = [ln for ln in raw_lines if ln != line]
        assert len(fragments) == 1
        assert unseal_line(fragments[0])[1] is not True

    def test_clean_append_stays_single_line(self, tmp_path):
        store, _ = quiet_store()
        path = tmp_path / "j.jsonl"
        store.fsync_append(path, "one")
        store.fsync_append(path, "two")
        assert path.read_text() == "one\ntwo\n"
