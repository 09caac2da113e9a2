"""The names the benchmark emits are exactly the ones BENCHMARK.json lists."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trace as layer_trace
from workloads import WORKLOADS

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_spec_names_are_well_formed_and_unique():
    for section in ("workloads", "end_to_end", "per_layer"):
        listed = names(section)
        assert len(set(listed)) == len(listed)
        assert all(NAME.fullmatch(name) for name in listed)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]}["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    assert list(WORKLOADS) == names("workloads")


def test_traced_layer_names_are_listed():
    assert set(layer_trace.layer_metrics(layer_trace.Tracer(), 1)) <= set(names("per_layer"))


@pytest.mark.parametrize("traced, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_emits_every_metric_of_its_section(tmp_path, traced, section):
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "replay_fcfs", "--seed", "11",
         "--repeats", "1", "--trace", str(traced), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == units
    if not traced:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    else:
        assert summary["metrics"]["core.train_batches"]["value"] == 0
        assert (tmp_path / "trace-replay_fcfs.json").exists()
    assert not list(tmp_path.glob("tmp-*"))
