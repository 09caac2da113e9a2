"""Unit tests for the durable-record module (repro.utils.durable) and
the one decode-or-reject rule every persisted-result reader applies."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.queue import WorkQueue
from repro.exp.cache import ResultCache
from repro.exp.records import TaskResult
from repro.exp.runner import ExperimentRunner
from repro.sim.metrics import MetricReport
from repro.utils.durable import (
    CORRUPT,
    OK,
    TORN,
    append_line,
    atomic_write,
    scan_sealed_jsonl,
    seal_line,
)


def make_result(key: str) -> TaskResult:
    return TaskResult(
        key=key,
        method="heuristic",
        seed=7,
        workloads=("S1",),
        metrics={"S1": MetricReport(
            utilization={"node": 0.8, "burst_buffer": 0.3},
            avg_wait=12.5, avg_slowdown=1.5, max_wait=99.0,
            p95_slowdown=2.25, makespan=1000.0, n_jobs=20,
        )},
        wall_time=0.1,
    )


def result_line(key: str) -> str:
    return seal_line(json.dumps(make_result(key).to_json_dict(), sort_keys=True))


class TestAtomicWrite:
    def test_success_replaces_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")
        atomic_write(target, lambda handle: handle.write("new"), fsync=True)
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failure_keeps_old_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")

        def explode(handle):
            handle.write("half a docu")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            atomic_write(target, explode)
        assert target.read_text() == "old"  # never a partial target
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_target_is_never_partial_while_writing(self, tmp_path):
        target = tmp_path / "doc.json"
        seen = []

        def slow_writer(handle):
            handle.write("first half ")
            handle.flush()
            seen.append(target.exists())
            handle.write("second half")

        atomic_write(target, slow_writer)
        assert seen == [False]  # invisible until the replace
        assert target.read_text() == "first half second half"

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write(target, lambda handle: handle.write(b"\x00\x01"), binary=True)
        assert target.read_bytes() == b"\x00\x01"

    def test_bench_trajectory_append_cleans_up_a_failed_dump(
        self, tmp_path, monkeypatch
    ):
        """perf.trajectory.append_entry used a fixed ``.tmp`` name that
        concurrent recorders clobbered and a failed dump left behind."""
        from repro.perf import trajectory

        path = tmp_path / "BENCH.json"
        trajectory.append_entry({"label": "first"}, path)
        before = sorted(p.name for p in tmp_path.iterdir())

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(trajectory.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            trajectory.append_entry({"label": "second"}, path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert [
            e["label"] for e in trajectory.load_trajectory(path)["trajectory"]
        ] == ["first"]


class TestAppendLine:
    def test_lines_are_newline_terminated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_line(path, "one")
        append_line(path, "two")
        assert path.read_text() == "one\ntwo\n"

    def test_append_after_torn_tail_lands_on_its_own_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(result_line("a") + "\n" + '{"key": "b", "met')
        append_line(path, result_line("c"))
        verdicts = [
            (line.verdict, line.value.key if line.value else None)
            for line in scan_sealed_jsonl(path.read_text(), TaskResult.decode)
        ]
        # Old record and new record both load; the fragment is now an
        # interior line and reads as corrupt, never as part of "c".
        assert verdicts == [(OK, "a"), (CORRUPT, None), (OK, "c")]

    def test_fsyncs_file_and_directory_on_first_create_only(
        self, tmp_path, monkeypatch
    ):
        import os

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        append_line(tmp_path / "j.jsonl", "one")
        assert len(synced) == 2
        append_line(tmp_path / "j.jsonl", "two")
        assert len(synced) == 3

    def test_before_write_hook_sees_the_guarded_payload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("fragment")
        seen = []
        append_line(path, "rec", before_write=lambda h, payload: seen.append(payload))
        assert seen == [b"\nrec\n"]
        assert path.read_text() == "fragment\nrec\n"


KEYS = st.lists(
    st.text(alphabet="0123456789abcdef", min_size=1, max_size=8),
    min_size=1, max_size=5, unique=True,
)


class TestSealedReader:
    def test_verdicts(self):
        text = "\n".join([
            result_line("a"),
            "",  # blank lines are not records
            result_line("b").replace('"seed": 7', '"seed": 8'),  # bad seal
            "not json",  # unsealed, unparseable, interior
            seal_line("[]"),  # sealed, valid JSON, wrong shape
            json.dumps(make_result("legacy").to_json_dict()),  # unsealed ok
            '{"key": "torn", "met',  # the tail
        ])
        lines = list(scan_sealed_jsonl(text, TaskResult.decode))
        assert [(l.line_no, l.verdict) for l in lines] == [
            (1, OK), (3, CORRUPT), (4, CORRUPT), (5, CORRUPT), (6, OK), (7, TORN),
        ]
        assert [l.reason for l in lines if l.verdict == CORRUPT] == [
            "checksum mismatch",
            "unsealed interior line failed to parse",
            "sealed but failed to parse",
        ]

    def test_without_a_decoder_any_json_document_is_a_record(self):
        (line,) = scan_sealed_jsonl(seal_line('{"a": 1}') + "\n")
        assert line.verdict == OK and line.value == {"a": 1}

    @settings(max_examples=150, deadline=None)
    @given(keys=KEYS, data=st.data())
    def test_truncation_yields_whole_records_and_at_most_one_torn_tail(
        self, keys, data
    ):
        """Cutting a sealed file at any byte — what a crash mid-append
        leaves — never reads as corruption."""
        text = "".join(result_line(key) + "\n" for key in keys)
        cut = data.draw(st.integers(min_value=0, max_value=len(text)))
        lines = list(scan_sealed_jsonl(text[:cut], TaskResult.decode))
        assert CORRUPT not in [line.verdict for line in lines]
        assert [line.verdict for line in lines].count(TORN) <= 1
        assert all(line.verdict == OK for line in lines[:-1])
        whole = [line.value.key for line in lines if line.verdict == OK]
        assert whole == keys[: len(whole)]  # a prefix, each record intact

    @settings(max_examples=150, deadline=None)
    @given(keys=KEYS, data=st.data())
    def test_flipped_byte_condemns_its_line_and_only_its_line(self, keys, data):
        sealed = [result_line(key) for key in keys]
        victim = data.draw(st.integers(min_value=0, max_value=len(sealed) - 1))
        offset = data.draw(st.integers(min_value=0, max_value=len(sealed[victim]) - 1))
        old = sealed[victim][offset]
        new = data.draw(
            st.characters(min_codepoint=0x21, max_codepoint=0x7E).filter(
                lambda c: c != old
            )
        )
        damaged = list(sealed)
        damaged[victim] = sealed[victim][:offset] + new + sealed[victim][offset + 1:]
        text = "".join(line + "\n" for line in damaged)
        verdicts = [l.verdict for l in scan_sealed_jsonl(text, TaskResult.decode)]
        assert len(verdicts) == len(keys)
        for index, verdict in enumerate(verdicts):
            if index != victim:
                assert verdict == OK
            elif index < len(keys) - 1:
                assert verdict == CORRUPT
            else:
                # On the final line a flip inside the seal *marker*
                # un-seals the line, which then reads as a torn tail;
                # either way it is never accepted.
                assert verdict in (CORRUPT, TORN)


#: valid JSON, wrong shape: what a stale schema or a foreign writer leaves
MALFORMED = [
    "[]",
    "null",
    '"a string"',
    "42",
    '{"key": "k1"}',
    '{"key": "k1", "metrics": null}',
    json.dumps({**make_result("k1").to_json_dict(), "metrics": []}),
    json.dumps({**make_result("k1").to_json_dict(), "seed": "seven"}),
    json.dumps({**make_result("k1").to_json_dict(), "workloads": 3}),
]


@pytest.mark.parametrize("record", MALFORMED)
class TestMalformedRecordsAreRejectedNotRaised:
    """One decode-or-reject, three readers: a record of the wrong shape
    is a miss / a skipped line / a quarantined line — never a crash."""

    def test_decode_rejects(self, record):
        assert TaskResult.decode(json.loads(record)) is None

    def test_cache_reads_a_miss(self, record, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "k1.json").write_text(record)
        assert cache.get("k1") is None

    def test_checkpoint_skips_the_line(self, record, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(
            result_line("a") + "\n" + record + "\n" + seal_line(record) + "\n"
            + result_line("b") + "\n"
        )
        done = ExperimentRunner(checkpoint_path=path)._load_checkpoint()
        assert set(done) == {"a", "b"}

    def test_shard_merge_quarantines_with_provenance(self, record, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.publish("w0", make_result("a"))
        append_line(queue.shard_path("w0"), seal_line(record))
        queue.publish("w0", make_result("b"))
        assert set(queue.merged_results()) == {"a", "b"}
        (quarantined,) = queue.quarantined()
        assert quarantined["origin"] == queue.shard_path("w0").name
        assert quarantined["line_no"] == 2
        assert quarantined["reason"] == "journal line sealed but failed to parse"
        assert quarantined["raw"] == seal_line(record)


class TestOneImplementation:
    """The grep-able acceptance criteria, kept green by the suite."""

    SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

    def _files_matching(self, pattern: str) -> list[str]:
        regex = re.compile(pattern)
        return sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if regex.search(path.read_text())
        )

    def test_exactly_one_file_calls_mkstemp(self):
        assert self._files_matching(r"\bmkstemp\(") == ["utils/durable.py"]

    def test_only_the_durable_module_fsyncs(self):
        assert self._files_matching(r"\bos\.fsync\(") == ["utils/durable.py"]

    def test_only_the_shared_reader_unseals_lines(self):
        assert self._files_matching(r"\bunseal_line\(") == ["utils/durable.py"]

    def test_durable_imports_only_the_standard_library(self):
        source = (self.SRC / "utils" / "durable.py").read_text()
        imported = re.findall(r"^(?:from|import) ([\w.]+)", source, re.M)
        assert not [name for name in imported if name.startswith("repro")]
