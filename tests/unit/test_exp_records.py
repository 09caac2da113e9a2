"""Unit tests for the experiment engine's records and result cache."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

import repro.exp.records as records
from repro.exp.cache import ResultCache
from repro.exp.records import (
    ExperimentTask,
    TaskResult,
    canonical_json,
    task_key,
)
from repro.experiments.harness import ExperimentConfig
from repro.sim.metrics import MetricReport
from repro.utils.durable import OK, scan_sealed_jsonl, seal_line


def make_task(**overrides) -> ExperimentTask:
    base = dict(
        method="heuristic",
        workloads=("S1", "S2"),
        seed=7,
        config=ExperimentConfig(nodes=32, bb_units=16, n_jobs=20),
    )
    base.update(overrides)
    return ExperimentTask(**base)


def make_report(avg_wait: float = 12.5) -> MetricReport:
    return MetricReport(
        utilization={"node": 0.8, "burst_buffer": 0.3},
        avg_wait=avg_wait,
        avg_slowdown=1.5,
        max_wait=99.0,
        p95_slowdown=2.25,
        makespan=1000.0,
        n_jobs=20,
    )


class TestTaskKey:
    def test_key_is_stable(self):
        assert make_task().key() == make_task().key()

    def test_key_changes_with_any_field(self):
        base = make_task().key()
        assert make_task(method="mrsch").key() != base
        assert make_task(seed=8).key() != base
        assert make_task(workloads=("S1",)).key() != base
        assert make_task(train=True).key() != base
        assert make_task(case_study=True).key() != base
        assert make_task(extra=(("prior_weight", 0.0),)).key() != base
        assert (
            make_task(config=ExperimentConfig(nodes=64, bb_units=16, n_jobs=20)).key()
            != base
        )

    def test_key_sees_nested_config_fields(self):
        from repro.sched.ga import NSGA2Config

        a = make_task(
            config=ExperimentConfig(ga_config=NSGA2Config(population=12, generations=6))
        )
        b = make_task(
            config=ExperimentConfig(ga_config=NSGA2Config(population=12, generations=7))
        )
        assert a.key() != b.key()

    def test_canonical_json_rejects_unhashable_payloads(self):
        with pytest.raises(TypeError, match="canonicalise"):
            canonical_json({"bad": object()})

    def test_canonical_json_orders_dict_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_task_key_matches_method(self):
        task = make_task()
        assert task.key() == task_key(task)

    def test_label_is_provenance_not_semantics(self):
        """Relabelling a cell must still hit the cache/checkpoint."""
        assert make_task(label="MLP").key() == make_task().key()
        assert make_task(label="MLP").display_name == "MLP"

    def test_key_is_pinned(self):
        """Cached results and queued cells are found by this digest: a
        change to the task schema that moves it orphans all of them."""
        assert make_task().key() == "52fcd0aa3b54dcfa633f7ba0"

    def test_a_spec_that_still_says_capture_traces_loads_as_the_plain_cell(self):
        """A traced cell was keyed with its ``capture_traces`` flag; the
        spec now loads as the untraced cell, whose key is not the one it
        was queued under, so ``WorkQueue.load_task`` refuses it."""
        spec = {**make_task().to_json_dict(), "capture_traces": True}
        loaded = ExperimentTask.from_json_dict(spec)
        assert loaded == make_task()
        assert loaded.key() != "e8e4ad4ead5a1e7931548606"  # its traced key


class TestKeyHashedOnce:
    def test_task_key_runs_once_per_instance(self, monkeypatch):
        hashed = []
        real = records.task_key
        monkeypatch.setattr(
            records, "task_key", lambda task: hashed.append(task) or real(task)
        )
        task = make_task()
        assert task.key() == task.key() == real(task)
        assert len(hashed) == 1
        make_task().key()
        assert len(hashed) == 2

    def test_copies_hash_to_the_same_key(self):
        for hashed_first in (False, True):
            task = make_task(extra=(("prior_weight", 0.5),))
            if hashed_first:
                task.key()
            for copy in (dataclasses.replace(task), pickle.loads(pickle.dumps(task))):
                assert copy == task
                assert copy.key() == task_key(task)

    def test_a_replaced_field_is_hashed_afresh(self):
        task = make_task()
        task.key()
        moved = dataclasses.replace(task, seed=8)
        assert moved.key() == make_task(seed=8).key() != task.key()


def plain_key(task: ExperimentTask) -> str:
    """:func:`task_key` as the whole payload's canonical JSON, the
    config walked afresh (no rendering kept between calls)."""
    fields = {f: getattr(task, f) for f in records._SEMANTIC_FIELDS}
    payload = canonical_json({"schema": records.TASK_SCHEMA_VERSION, "task": fields})
    return records.hashlib.sha256(payload.encode()).hexdigest()[:24]


class TestConfigRenderedOncePerGrid:
    """A grid's cells share one config; it is rendered once, and again
    whenever it changed since."""

    def test_cells_sharing_a_config_hash_and_queue_as_if_rendered_alone(self):
        from repro.exp.runner import grid_tasks

        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=20, curriculum_sets=[1, 0, 2])
        for task in grid_tasks(["heuristic", "fcfs"], ["S1"], config, n_seeds=3):
            assert task.key() == plain_key(task)
            spec = task.to_json_dict()["config"]
            assert spec == {**dataclasses.asdict(config), "curriculum_sets": [1, 0, 2]}

    def test_a_config_mutated_after_a_compile_hashes_to_its_new_key(self):
        from repro.exp.runner import grid_tasks
        from repro.sched.ga_config import NSGA2Config

        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=20, curriculum_sets=[1, 1, 1])
        first = grid_tasks(["heuristic"], ["S1"], config)[0].key()
        seen = {first}
        for mutate in (
            lambda c: setattr(c, "n_jobs", 21),
            lambda c: setattr(c, "mean_interarrival", 600),  # == 600.0, renders "600"
            lambda c: c.curriculum_sets.__setitem__(0, 2),  # in place
            lambda c: setattr(c, "ga_config", NSGA2Config(population=4, generations=2)),
        ):
            mutate(config)
            (task,) = grid_tasks(["heuristic"], ["S1"], config)
            assert task.key() == plain_key(task) not in seen
            spec = task.to_json_dict()["config"]
            assert spec == {**dataclasses.asdict(config),
                            "curriculum_sets": list(config.curriculum_sets)}
            seen.add(task.key())

    def test_a_spec_is_a_copy_its_reader_may_change(self):
        task = make_task()
        spec = task.to_json_dict()
        spec["config"]["n_jobs"] = 99
        spec["config"]["ga_config"]["population"] = 99
        spec["config"]["curriculum_sets"].append(9)
        assert make_task().to_json_dict() == task.to_json_dict() != spec


class TestTaskResultJson:
    def test_roundtrip_is_lossless(self):
        result = TaskResult(
            key="abc",
            method="heuristic",
            seed=7,
            workloads=("S1", "S2"),
            metrics={"S1": make_report(1.0), "S2": make_report(2.0)},
            wall_time=0.5,
            label="H",
        )
        back = TaskResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert back.key == result.key
        assert back.workloads == result.workloads
        assert back.display_name == "H"
        for w in result.workloads:
            assert back.metrics[w].full_dict() == result.metrics[w].full_dict()

    def test_a_record_still_carrying_trace_keys_decodes_to_an_equal_result(
        self, tmp_path
    ):
        """Cache entries and journal lines once carried ``trace_keys``;
        they still load, as the result without them."""
        result = TaskResult(
            key="abc",
            method="mrsch",
            seed=7,
            workloads=("S1",),
            metrics={"S1": make_report()},
            wall_time=0.5,
        )
        doc = {**result.to_json_dict(), "trace_keys": ["abc_S1"]}
        assert TaskResult.decode(json.loads(json.dumps(doc))) == result
        (tmp_path / "abc.json").write_text(json.dumps(doc))
        cached = ResultCache(tmp_path).get("abc")
        assert dataclasses.replace(cached, source="run") == result
        (line,) = scan_sealed_jsonl(
            seal_line(json.dumps(doc, sort_keys=True)) + "\n", TaskResult.decode
        )
        assert line.verdict == OK and line.value == result

    def test_worker_provenance_roundtrips(self):
        result = TaskResult(
            key="abc",
            method="heuristic",
            seed=7,
            workloads=("S1",),
            metrics={"S1": make_report()},
            wall_time=0.5,
            worker_id="host-123-abcdef",
            hostname="nodeA",
        )
        back = TaskResult.from_json_dict(result.to_json_dict())
        assert back.worker_id == "host-123-abcdef"
        assert back.hostname == "nodeA"

    def test_worker_provenance_legacy_default(self):
        """Journals written before repro.dist existed still load."""
        result = TaskResult(
            key="abc",
            method="heuristic",
            seed=7,
            workloads=("S1",),
            metrics={"S1": make_report()},
            wall_time=0.5,
        )
        legacy = result.to_json_dict()
        legacy.pop("worker_id")
        legacy.pop("hostname")
        back = TaskResult.from_json_dict(legacy)
        assert back.worker_id == ""
        assert back.hostname == ""

    def test_metric_report_full_dict_roundtrip(self):
        report = make_report()
        clone = MetricReport.from_dict(report.full_dict())
        assert clone.full_dict() == report.full_dict()
        assert clone.node_util == report.node_util
        assert clone.bb_util == report.bb_util


class TestTaskJson:
    """Task specs round-trip through JSON (the dist queue's task files)."""

    def test_roundtrip_preserves_key(self):
        task = make_task(
            extra=(("prior_weight", 0.5),),
            label="H",
        )
        back = ExperimentTask.from_json_dict(
            json.loads(json.dumps(task.to_json_dict()))
        )
        assert back.key() == task.key()
        assert back == task

    def test_roundtrip_preserves_nested_config(self):
        from repro.sched.ga import NSGA2Config

        task = make_task(
            config=ExperimentConfig(
                nodes=64,
                curriculum_sets=(2, 1, 1),
                ga_config=NSGA2Config(population=12, generations=6),
            )
        )
        back = ExperimentTask.from_json_dict(task.to_json_dict())
        assert back.config == task.config
        assert back.config.ga_config.population == 12
        assert back.config.curriculum_sets == (2, 1, 1)


class TestResultCache:
    def _result(self, key: str = "k1") -> TaskResult:
        return TaskResult(
            key=key,
            method="heuristic",
            seed=7,
            workloads=("S1",),
            metrics={"S1": make_report()},
            wall_time=0.1,
        )

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self._result())
        hit = cache.get("k1")
        assert hit is not None
        assert hit.source == "cache"
        assert hit.metrics["S1"].full_dict() == make_report().full_dict()

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text('{"key": "bad"')
        assert cache.get("bad") is None

    def test_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self._result("a"))
        cache.put(self._result("b"))
        assert "a" in cache and "b" in cache and "c" not in cache

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self._result())
        assert list(tmp_path.glob("*.tmp")) == []


class TestTaskImmutability:
    def test_tasks_are_frozen(self):
        task = make_task()
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.seed = 99  # type: ignore[misc]
