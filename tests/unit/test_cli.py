"""Tests for the ``repro`` command-line entry point."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.api import cli
from repro.api.cli import main

TINY = {
    "name": "cli-tiny",
    "methods": ["heuristic"],
    "workloads": ["S1"],
    "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
    "seed": 3,
    "train": False,
    "config": {"n_jobs": 20, "window_size": 5},
}


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestList:
    def test_text(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("Schedulers:", "Workloads:", "Systems:"):
            assert section in out
        assert "mrsch" in out and "S5" in out and "mini_theta" in out
        assert "trainable" in out and "case-study" in out

    def test_json(self, capsys):
        assert main(["list", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in snapshot["schedulers"]]
        assert "heuristic" in names
        assert any(w["case_study"] for w in snapshot["workloads"])

    def test_handles_plugin_without_description(self, capsys):
        from repro.api import SCHEDULERS, register_scheduler

        register_scheduler("toy_undescribed")(lambda system, **kw: None)
        try:
            assert main(["list"]) == 0
            assert "toy_undescribed" in capsys.readouterr().out
        finally:
            SCHEDULERS.unregister("toy_undescribed")


class TestRun:
    def test_runs_scenario_file(self, tiny_file, capsys):
        assert main(["run", tiny_file]) == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out and "node_util" in out and "heuristic" in out

    def test_json_output(self, tiny_file, capsys):
        assert main(["run", tiny_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "cli-tiny"
        assert "S1" in payload["reports"]
        assert "utilization" in payload["reports"]["S1"]["heuristic"]

    def test_seed_override_changes_metrics(self, tiny_file, capsys):
        main(["run", tiny_file, "--json"])
        base = json.loads(capsys.readouterr().out)
        main(["run", tiny_file, "--json", "--seed", "99"])
        overridden = json.loads(capsys.readouterr().out)
        assert base["reports"] != overridden["reports"]
        assert base["scenario_hash"] != overridden["scenario_hash"]

    def test_seed_override_replaces_explicit_seeds(self, tmp_path, capsys):
        """--seed must re-seed even a scenario that pins a seeds list."""
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps({**TINY, "seeds": [5, 6]}))
        assert main(["run", str(path), "--json", "--seed", "99"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["seed"] == 99
        assert "seeds" not in payload["scenario"]
        assert list(payload["reports"]["S1"]) == ["heuristic"]  # one cell

    def test_missing_file_is_an_error(self, capsys):
        assert main(["run", "does/not/exist.json"]) == 1
        assert "scenario file not found" in capsys.readouterr().err

    def test_invalid_scenario_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "methods": ["slurm"]}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown scheduler 'slurm'" in err

    def test_checkpoint_roundtrip(self, tiny_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.jsonl"
        assert main(["run", tiny_file, "--checkpoint", str(ckpt), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert list(first["sources"].values()) == ["run"]
        assert main(["run", tiny_file, "--checkpoint", str(ckpt), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert list(second["sources"].values()) == ["checkpoint"]
        assert first["reports"] == second["reports"]


class TestCommands:
    def test_docstring_names_every_subcommand(self):
        action = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        documented = re.findall(r"^``repro ([a-z-]+)", cli.__doc__, re.MULTILINE)
        assert sorted(set(documented)) == sorted(action.choices)
        assert len(action.choices) == 7
        assert "\nSeven subcommands," in cli.__doc__

    def test_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--trace-dir", "traces"], "invalid choice: 'eval'"),
        (["run", "s.json", "--trace-dir", "traces"], "unrecognized arguments"),
        (["run", "s.json", "--compact-traces"], "unrecognized arguments"),
    ])
    def test_offline_rescoring_surface_is_gone(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestMalformedScenarioFile:
    """The first four rows once escaped ``main`` as a traceback; the
    next three loaded without complaint; the last names a section that
    no longer exists."""

    @pytest.mark.parametrize("example,mutate", [
        ("smoke", lambda d: d.update(methods=[["heuristic"]])),
        ("smoke", lambda d: d["system"].update(nodes={})),
        ("bb_heavy_mix", lambda d: d["config"].update(curriculum_sets=[1, 1e400, 1])),
        ("smoke", lambda d: d["config"].update(mean_interarrival="")),
        ("power_aware_goals", lambda d: d["goal"]["weights"].update(node=float("nan"))),
        ("bb_heavy_mix", lambda d: d["config"]["ga"].update(generations=float("inf"))),
        ("smoke", lambda d: d["config"].update(mean_interarrival=float("inf"))),
        ("smoke", lambda d: d.update(evaluation={})),
    ])
    def test_one_line_and_exit_1(self, example, mutate, tmp_path, capsys):
        doc = json.loads(
            (Path(__file__).resolve().parents[2] / "examples" / "scenarios"
             / f"{example}.json").read_text()
        )
        mutate(doc)
        path = tmp_path / f"{example}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro run: error: ") and err.count("\n") == 1


class TestNegativeSeed:
    """NumPy's generators take non-negative seeds only; a negative one
    once passed validation and then failed inside every cell."""

    SMOKE = str(Path(__file__).resolve().parents[2] / "examples" / "scenarios" / "smoke.json")

    @pytest.mark.parametrize("queued", [False, True], ids=["inline", "queue"])
    def test_run_seed_is_one_error_line_naming_seed(self, queued, tmp_path, capsys):
        queue = tmp_path / "q"
        flags = ["--queue", str(queue), "--workers", "2"] if queued else []
        assert main(["run", self.SMOKE, "--seed", "-5", *flags]) == 1
        err = capsys.readouterr().err
        assert err == "repro run: error: scenario.seed must be a non-negative int, got -5\n"
        assert not any(queue.glob("failed/*"))

    @pytest.mark.parametrize("argv, field", [
        (["--seed", "-2"], "ExperimentConfig.seed"),
        (["--seeds", "-1", "3"], "scenario.seeds"),
    ])
    def test_compare_seed_is_one_error_line_naming_seed(self, argv, field, capsys):
        assert main(["compare", "--methods", "heuristic", "--workloads", "S1", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro compare: error: {field} must be") and err.count("\n") == 1


class TestCompare:
    def test_inline_grid(self, capsys):
        code = main(
            ["compare", "--methods", "heuristic", "--workloads", "S1,S3",
             "--nodes", "32", "--bb-units", "16", "--n-jobs", "20",
             "--window-size", "5", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compare — S1" in out and "compare — S3" in out

    def test_unknown_method_is_an_error(self, capsys):
        code = main(["compare", "--methods", "slurm", "--workloads", "S1"])
        assert code == 1
        assert "unknown scheduler" in capsys.readouterr().err

    def test_json_with_seeds(self, capsys):
        code = main(
            ["compare", "--methods", "heuristic", "--workloads", "S1",
             "--seeds", "5", "6", "--nodes", "32", "--bb-units", "16",
             "--n-jobs", "20", "--window-size", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["S1"]) == {"heuristic@5", "heuristic@6"}


class TestWorkQueueCommands:
    def _enqueue(self, tmp_path):
        from repro.dist import WorkQueue, ensure_enqueued
        from repro.exp import grid_tasks
        from repro.experiments.harness import ExperimentConfig

        queue = WorkQueue(tmp_path / "q", lease_ttl=10.0)
        queue.write_meta(batch_episodes=1)
        tasks = grid_tasks(
            ["heuristic"],
            ["S1"],
            ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5, seed=3),
            n_seeds=2,
        )
        ensure_enqueued(queue, tasks)
        return queue

    def test_work_drains_queue(self, tmp_path, capsys):
        queue = self._enqueue(tmp_path)
        code = main(
            ["work", "--queue", str(queue.root), "--worker-id", "cli-w0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worker cli-w0: 2 cell(s) executed" in out
        assert queue.status().done == 2

    def test_work_json_report(self, tmp_path, capsys):
        queue = self._enqueue(tmp_path)
        code = main(
            ["work", "--queue", str(queue.root), "--json", "--max-cells", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["executed"]) == 1
        assert report["failed"] == []

    def test_work_missing_queue_is_an_error(self, tmp_path, capsys):
        assert main(["work", "--queue", str(tmp_path / "nope")]) == 1
        assert "work queue not found" in capsys.readouterr().err

    def test_queue_status_text_and_json(self, tmp_path, capsys):
        queue = self._enqueue(tmp_path)
        assert main(["queue-status", "--queue", str(queue.root)]) == 0
        assert "cells: 0/2 done" in capsys.readouterr().out
        main(["work", "--queue", str(queue.root), "--worker-id", "cli-w0"])
        capsys.readouterr()
        assert main(["queue-status", "--queue", str(queue.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 2 and payload["pending"] == 0
        assert payload["workers"][0]["worker_id"] == "cli-w0"

    def test_run_through_queue_dispatch(self, tiny_file, tmp_path, capsys):
        code = main(
            ["run", tiny_file, "--queue", str(tmp_path / "q"),
             "--workers", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "utilization" in payload["reports"]["S1"]["heuristic"]

    @pytest.mark.parametrize("supervise", [[], ["--supervise", "1"]])
    @pytest.mark.parametrize("flag,value", [
        ("--cell-timeout", "-1"),  # join(-1) returns at once: every cell timed out
        ("--cell-timeout", "inf"),
        ("--poll", "-1"),  # the first idle sleep raised
        ("--poll", "nan"),
        ("--max-cells", "0"),  # exited having done nothing
        ("--lease-ttl", "nan"),  # passed `ttl <= 0`: leases never expired
        ("--lease-ttl", "0"),
        ("--backoff", "nan"),
    ])
    def test_malformed_work_flag_is_one_line_and_exit_1(
        self, flag, value, supervise, tmp_path, capsys
    ):
        queue = self._enqueue(tmp_path)
        argv = ["work", "--queue", str(queue.root), *supervise, flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro work: error: {flag} ") and err.count("\n") == 1
        assert queue.status().done == 0  # no worker started

    @pytest.mark.parametrize("value,shown", [
        ("nan", "nan"),  # `age <= nan` is never true: every live worker read as dead
        ("-1", "-1.0"),
        ("inf", "inf"),
    ])
    def test_malformed_stale_after_leaves_workers_alone(
        self, value, shown, tmp_path, capsys
    ):
        queue = self._enqueue(tmp_path)
        queue.register_worker("w-live")
        record = queue.workers_dir / "w-live.json"
        before = record.read_bytes()
        argv = ["doctor", str(queue.root), "--stale-after", value, "--repair"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "repro doctor: error: --stale-after must be non-negative "
            f"(a finite number), got {shown}\n"
        )
        assert record.read_bytes() == before

    @pytest.mark.parametrize("value,shown", [
        ("0", "0.0"), ("nan", "nan"), ("inf", "inf"),
    ])
    def test_malformed_watch_is_one_line_and_exit_1(
        self, value, shown, tmp_path, capsys
    ):
        queue = self._enqueue(tmp_path)  # cells pending: a watch would sleep
        assert main(["queue-status", "--queue", str(queue.root), "--watch", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # checked before the first snapshot
        assert captured.err == (
            "repro queue-status: error: --watch must be positive "
            f"(a finite number), got {shown}\n"
        )

    def test_flags_are_checked_before_the_queue_opens(self, tmp_path, capsys):
        missing = str(tmp_path / "no-queue")
        assert main(["doctor", missing, "--stale-after", "nan"]) == 1
        assert "--stale-after" in capsys.readouterr().err
        assert main(["queue-status", "--queue", missing, "--watch", "0"]) == 1
        assert "--watch" in capsys.readouterr().err
