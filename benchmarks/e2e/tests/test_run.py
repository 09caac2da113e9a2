"""run.py's timed loop and yardstick, its result line when a run raises, and --compare."""

import json
import statistics
import tempfile

import pytest

import check
import run
from workloads import WORKLOADS


def test_timed_runs_rest_on_at_least_min_runs():
    def loop(**kwargs):
        tally = check.Tally(n_jobs=40, cells_per_run=1)
        samples = run.timed_runs(lambda: [], run.timed, tally, seconds=0.0, **kwargs)
        assert all(set(s) == {"wall_s", "cpu_s"} for s in samples)
        return len(samples)

    assert loop(repeats=None) == run.MIN_RUNS >= 5
    assert loop(repeats=2) == 2
    assert loop(repeats=None, at_least=1) == 1


def test_yardstick_scales_each_clock_by_the_readings_beside_the_call(monkeypatch):
    yardstick = run.Yardstick()
    assert len(yardstick.read_for(0.0)) == 1  # at least one reading, never more than asked
    before = [{"wall_s": 0.03, "cpu_s": 0.03}]
    after = [{"wall_s": 0.09, "cpu_s": 0.03}, {"wall_s": 0.06, "cpu_s": 0.03}]
    yardstick._before = before
    asked = []
    monkeypatch.setattr(yardstick, "read_for", lambda seconds: asked.append(seconds) or after)
    result, sample = yardstick.timed(lambda: "done")
    assert result == "done"
    assert asked == [run.YARDSTICK_SHARE * sample["wall_s"]]
    assert sample["yardstick_wall_s"] == pytest.approx(0.06)  # mean of the three beside it
    assert sample["yardstick_cpu_s"] == pytest.approx(0.03)  # stolen time is not CPU time
    assert yardstick._before is after  # the next call's "before", read once


def test_at_reference_speed_cancels_a_slower_machine():
    quick = {"wall_s": 2.0, "cpu_s": 1.9, "yardstick_wall_s": 0.03, "yardstick_cpu_s": 0.03}
    slow = {"wall_s": 3.0, "cpu_s": 1.9, "yardstick_wall_s": 0.045, "yardstick_cpu_s": 0.03}
    for clock in ("wall_s", "cpu_s"):
        assert run.at_reference_speed(slow, clock) == pytest.approx(
            run.at_reference_speed(quick, clock))
    assert run.at_reference_speed(quick, "wall_s") == pytest.approx(
        2.0 * run.YARDSTICK_REFERENCE_S / 0.03)


def test_a_run_that_raises_still_prints_its_result_line(tmp_path, monkeypatch, capsys):
    def broken(scenario, tmp):
        raise RuntimeError("boom")

    monkeypatch.setitem(run.RUNNERS, "inline", broken)
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # run_workload redirects both
    monkeypatch.setattr(tempfile, "tempdir", None)
    status = run.run_workload(WORKLOADS["replay_fcfs"], seed=1, seconds=0.0,
                              traced=False, repeats=1, out=tmp_path)
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert summary == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    detail = json.loads((tmp_path / "run-replay_fcfs-trace0.json").read_text())
    assert "RuntimeError: boom" in detail["reasons"][0]
    assert not list(tmp_path.glob("tmp-*"))


def suite_file(path, wall, failed=0, digest="d"):
    """A result file with one workload whose timings all read ``wall``."""
    metrics = {m["name"]: {"value": statistics.median(wall), "unit": m["unit"]}
               for m in run.benchmark_spec()["end_to_end"]}
    samples = {name: list(wall) for name in metrics}
    doc = {"commit": "c" * 40, "seed": 1, "workloads": {"replay_fcfs": {"end_to_end": {
        "metrics": metrics, "samples": samples, "attempted": 10, "failed": failed,
        "result_digest": digest}}}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "wall_b, failed_b, status, verdict",
    [
        ([1.0, 1.01, 1.02, 1.03, 1.04], 0, 0, "ok"),
        ([2.0, 2.01, 2.02, 2.03, 2.04], 0, 1, "REGRESSED"),  # ranges apart
        ([0.9, 1.0, 1.5, 1.6, 1.7], 0, 0, "unresolved"),  # worse, ranges overlap
        ([1.0, 1.01, 1.02, 1.03, 1.04], 1, 1, "fail_ratio"),
    ],
)
def test_compare_verdicts(tmp_path, capsys, wall_b, failed_b, status, verdict):
    a = suite_file(tmp_path / "a.json", [1.0, 1.01, 1.02, 1.03, 1.04])
    b = suite_file(tmp_path / "b.json", wall_b, failed=failed_b, digest="e")
    assert run.compare(a, b) == status
    printed = capsys.readouterr().out
    assert verdict in printed
    assert "result_digest differs" in printed
