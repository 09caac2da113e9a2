"""The paper-fidelity gate: ``FIDELITY.json`` is the census of
``examples/scenarios/fidelity.json``, and the figures' claims read from it.

The ``slow`` test reruns the whole census (six arms × S1–S5 × seeds 1–5,
~80 s on two workers) and requires every row, effect and claim of the
committed file to come back; ``examples/fidelity.py`` rewrites the file
when a change moves them on purpose. The tier-1 subset reruns the five
arms that do not run NSGA-II at seed 1 and checks only that they still
order the way the file records. The rBB observations of Figs. 8/9 read
a scheduler's goal log, which no cell result carries, so they are
tier-1 tests of their own.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.api import Scenario, run_scenario, run_single
from repro.eval.fidelity import CLAIMS, fidelity_rows
from repro.experiments.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[2]
SCENARIO = ROOT / "examples" / "scenarios" / "fidelity.json"
COMMITTED = json.loads((ROOT / "FIDELITY.json").read_text(encoding="utf-8"))


def moved(committed, fresh, path: str = "") -> list[str]:
    """Every leaf of ``committed`` whose value ``fresh`` does not repeat."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        keys = list(dict.fromkeys([*committed, *fresh]))
        return [m for k in keys
                for m in moved(committed.get(k), fresh.get(k), f"{path}.{k}")]
    if isinstance(committed, list) and isinstance(fresh, list) \
            and len(committed) == len(fresh):
        return [m for i, (a, b) in enumerate(zip(committed, fresh))
                for m in moved(a, b, f"{path}[{i}]")]
    return [] if committed == fresh else [f"{path}: {committed!r} -> {fresh!r}"]


def signs(values: dict[str, float]) -> dict[tuple[str, str], float]:
    return {(a, b): np.sign(values[a] - values[b]) for a, b in combinations(values, 2)}


class TestTheCommittedCensus:
    def test_the_file_is_the_census_of_the_committed_scenario(self):
        scenario = Scenario.from_file(SCENARIO)
        assert scenario.build_config() == ExperimentConfig()
        assert COMMITTED["scenario_hash"] == scenario.config_hash()
        assert COMMITTED["arms"] == list(scenario.labels)
        assert COMMITTED["seeds"] == list(scenario.seeds) == [1, 2, 3, 4, 5]
        assert [c["claim"] for c in COMMITTED["claims"]] == [c[0] for c in CLAIMS]

    def test_every_effect_counts_all_25_units(self):
        for per_base in COMMITTED["effects"].values():
            for effect in per_base.values():
                assert effect["wins"] + effect["losses"] + effect["ties"] == 25
                lo, hi = effect["ci95"]
                assert lo <= effect["slowdown_diff"] <= hi

    def test_the_subset_keeps_the_recorded_orderings(self):
        """Five arms at seed 1 (NSGA-II's cells cost 15 s each): per
        workload, each pair of arms orders its slowdown as the file says."""
        scenario = Scenario.from_file(SCENARIO)
        subset = scenario.replace(
            methods=[m for m, label in zip(scenario.methods, scenario.labels)
                     if label != "optimization"],
            seeds=(1,),
        )
        fresh = fidelity_rows(run_scenario(subset, n_workers=1, progress=False))
        seed = COMMITTED["seeds"].index(1)
        for workload in COMMITTED["workloads"]:
            recorded = {arm: COMMITTED["slowdown"][arm][workload][seed]
                        for arm in fresh["arms"]}
            now = {arm: fresh["slowdown"][arm][workload][0] for arm in fresh["arms"]}
            assert signs(now) == signs(recorded), workload


@pytest.mark.slow
def test_the_census_reproduces_fidelity_json():
    fresh = fidelity_rows(run_scenario(SCENARIO, progress=False))
    flipped = [c["claim"] for c, f in zip(COMMITTED["claims"], fresh["claims"])
               if c["holds"] != f["holds"]]
    rows = moved(COMMITTED, fresh)
    assert not rows, (
        f"claims that flipped: {flipped}\nrows that moved "
        "(rerun examples/fidelity.py if the change means to move them):\n"
        + "\n".join(rows)
    )


class TestGoalVector:
    """§V-D: under S5 the burst buffer dominates contention, so rBB, the
    burst-buffer weight of Eq. 1's goal vector, sits above the scalar-RL
    constant 0.5 and moves (Fig. 8), and S5's distribution tops S1–S4
    (Fig. 9). Untrained MRSch at the default sizing."""

    @pytest.fixture(scope="class")
    def rbb(self):
        out = {}
        for workload in ("S1", "S2", "S3", "S4", "S5"):
            _, sched = run_single(workload, "mrsch", ExperimentConfig(), train=False)
            _, goals = sched.goal_series()
            out[workload] = goals[:, sched.system.names.index("burst_buffer")]
        return out

    def test_fig8_rbb_on_s5_sits_above_one_half_and_fluctuates(self, rbb):
        series = rbb["S5"]
        assert series.size > 5
        assert series.mean() > 0.5
        assert series.max() - series.min() > 0.02

    def test_fig9_s5_tops_the_suite_and_every_rbb_varies(self, rbb):
        for other in ("S1", "S2", "S3", "S4"):
            assert np.median(rbb["S5"]) >= np.median(rbb[other])
            assert np.percentile(rbb["S5"], 75) >= np.percentile(rbb[other], 75)
        for series in rbb.values():
            assert series.max() > series.min()


class TestFigureScenarios:
    """A figure's variants are arms of one scenario file."""

    def test_fig3_both_state_modules_replay_every_workload(self):
        config = ExperimentConfig(
            nodes=32, bb_units=16, n_jobs=40, window_size=5, seed=3,
            curriculum_sets=(1, 1, 1), jobs_per_trainset=20,
        )
        scenario = Scenario.from_file(ROOT / "examples/scenarios/fig3_state_module.json")
        result = run_scenario(scenario.replace(**Scenario.sections_for(config)))
        for per in result.reports.values():
            assert list(per) == ["MLP", "CNN"]
            for report in per.values():
                assert 0.0 <= report.node_util <= 1.0
                assert report.n_jobs == config.n_jobs
        # Both state modules train and score through every layer forward
        # (the CNN's Conv1D → Flatten → Dense too): any change to what a
        # forward computes moves this digest of every report.
        reports = {
            workload: {label: report.full_dict() for label, report in per.items()}
            for workload, per in result.reports.items()
        }
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "6db3000bed984b78e2bebfb7ce46ddf72e3b2b17e14ed0e161dad3a84450eb86"

    def test_easy_backfilling_pays_on_s4(self):
        """FCFS with EASY keeps the nodes busier and the queue shorter
        than without it, on the contended S4 at the default sizing."""
        scenario = Scenario.from_file(ROOT / "examples/scenarios/ablations.json")
        fcfs = scenario.replace(methods=scenario.methods[:2], workloads=("S4",))
        reports = run_scenario(fcfs).reports["S4"]
        easy, plain = reports["heuristic"], reports["heuristic-no-easy"]
        assert easy.node_util >= plain.node_util
        assert easy.avg_wait <= plain.avg_wait
