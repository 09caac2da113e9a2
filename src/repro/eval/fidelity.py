"""The rows of the paper-fidelity gate, ``FIDELITY.json``.

:func:`fidelity_rows` turns the results of a multi-seed, multi-arm study
(``examples/scenarios/fidelity.json``) into one JSON document:

``rows``
    per arm × workload, the mean over seeds of the four plotted metrics
    (node and BB utilisation, wait in hours, slowdown), plus ``all``, the
    mean over every (workload, seed) unit;
``slowdown``
    per arm × workload, the slowdown of each seed — the units the
    effects below are computed over;
``effects``
    per arm, against each baseline arm: the paired-bootstrap mean
    slowdown difference (arm minus baseline, so negative is better) with
    its 95% interval, and the per-unit wins / losses / ties;
``claims``
    the paper's claims and the reproduction's own bounds, each with its
    figure, its direction, the rows it reads, the ratio found and
    whether it holds here.

Every float is rounded to six decimals, so the document is the same
bytes for the same results, whatever ran them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.eval.stats import paired_bootstrap, win_loss

if TYPE_CHECKING:
    from repro.api.facade import ScenarioResult

__all__ = ["CLAIMS", "fidelity_rows"]

#: the plotted metrics of Figs. 5/6, as :meth:`MetricReport.as_dict` names them
METRICS = ("node_util", "bb_util", "avg_wait_h", "avg_slowdown")
#: the arms every other arm's slowdown effect is measured against
BASELINES = ("heuristic", "prior")
#: bootstrap resamples behind each effect's 95% interval
N_BOOTSTRAP = 1000

#: ``(claim, figure, arm, metric, direction, reference, factor, workloads)``:
#: the claim holds when ``arm``'s mean ``metric`` over ``workloads``
#: (None: all) is ``direction`` ("higher": at least, "lower": at most)
#: ``factor`` times the reference's — another arm, or ``best``, the best
#: arm on that metric.
CLAIMS = (
    ("MRSch keeps the nodes the busiest", "Fig. 5",
     "mrsch", "node_util", "higher", "best", 1.0, None),
    ("MRSch keeps the burst buffer the busiest", "Fig. 5",
     "mrsch", "bb_util", "higher", "best", 1.0, None),
    ("MRSch's node utilisation is within 15% of the best arm's", "Fig. 5",
     "mrsch", "node_util", "higher", "best", 0.85, None),
    ("MRSch's BB utilisation is within 15% of the best arm's", "Fig. 5",
     "mrsch", "bb_util", "higher", "best", 0.85, None),
    ("MRSch waits less than FCFS+EASY", "Fig. 6",
     "mrsch", "avg_wait_h", "lower", "heuristic", 1.0, None),
    ("MRSch's wait on the fiercely contended S4/S5 is within 1.25x FCFS+EASY's",
     "Fig. 6", "mrsch", "avg_wait_h", "lower", "heuristic", 1.25, ("S4", "S5")),
    ("MRSch slows jobs less than FCFS+EASY", "Fig. 6",
     "mrsch", "avg_slowdown", "lower", "heuristic", 1.0, None),
    ("MRSch slows jobs less than NSGA-II", "Fig. 6",
     "mrsch", "avg_slowdown", "lower", "optimization", 1.0, None),
    ("MRSch slows jobs less than scalar RL", "Fig. 6",
     "mrsch", "avg_slowdown", "lower", "scalar_rl", 1.0, None),
    ("The feasibility prior pays for itself: guided MRSch slows jobs less "
     "than pure DFP", "§III-C", "mrsch", "avg_slowdown", "lower", "dfp", 1.0, None),
    ("The feasibility prior pays for itself: guided MRSch's node utilisation "
     "on S4 is within 5% of pure DFP's", "§III-C",
     "mrsch", "node_util", "higher", "dfp", 0.95, ("S4",)),
)


def _round(x: float) -> float:
    return round(float(x), 6)


def fidelity_rows(result: "ScenarioResult") -> dict:
    """Build the gate's document from one study's
    :class:`~repro.api.facade.ScenarioResult`.

    Arms are the scenario's labels in its order; claims that name an arm
    the study lacks are left out.
    """
    scenario = result.scenario
    cells = {(r.display_name, r.seed): r.metrics for r in result.results}
    arms = list(scenario.labels)
    seeds = sorted({seed for _, seed in cells})
    workloads = list(scenario.workloads)

    def values(arm: str, workload: str, metric: str) -> list[float]:
        return [cells[arm, seed][workload].as_dict()[metric] for seed in seeds]

    rows: dict = {}
    for arm in arms:
        rows[arm] = {
            w: {m: _round(np.mean(values(arm, w, m))) for m in METRICS} for w in workloads
        }
        rows[arm]["all"] = {
            m: _round(np.mean([values(arm, w, m) for w in workloads])) for m in METRICS
        }
    slowdown = {
        arm: {w: [_round(v) for v in values(arm, w, "avg_slowdown")] for w in workloads}
        for arm in arms
    }

    # (unit, arm) slowdowns; the units are (workload, seed) pairs
    units = np.column_stack([
        np.concatenate([values(arm, w, "avg_slowdown") for w in workloads]) for arm in arms
    ])
    diff, lo, hi = paired_bootstrap(units, n_bootstrap=N_BOOTSTRAP)
    wins = win_loss(-units)  # lower slowdown wins
    effects: dict = {}
    for a, arm in enumerate(arms):
        for base in BASELINES:
            if base not in arms or base == arm:
                continue
            b = arms.index(base)
            effects.setdefault(arm, {})[f"vs_{base}"] = {
                "slowdown_diff": _round(diff[a, b]),
                "ci95": [_round(lo[a, b]), _round(hi[a, b])],
                "wins": int(wins[a, b]),
                "losses": int(wins[b, a]),
                "ties": int(len(units) - wins[a, b] - wins[b, a]),
            }

    return {
        "scenario": scenario.name,
        "scenario_hash": scenario.config_hash(),
        "arms": arms,
        "workloads": workloads,
        "seeds": seeds,
        "rows": rows,
        "slowdown": slowdown,
        "effects": effects,
        "claims": _claims(rows, arms),
    }


def _claims(rows: dict, arms: list[str]) -> list[dict]:
    out = []
    for claim, figure, arm, metric, direction, reference, factor, workloads in CLAIMS:
        if arm not in arms or reference not in (*arms, "best"):
            continue

        def mean(label: str) -> float:
            if workloads is None:
                return rows[label]["all"][metric]
            return float(np.mean([rows[label][w][metric] for w in workloads]))

        pick = max if direction == "higher" else min
        ref = pick(mean(a) for a in arms) if reference == "best" else mean(reference)
        ratio = mean(arm) / ref if ref else 1.0
        holds = ratio >= factor if direction == "higher" else ratio <= factor
        where = "all" if workloads is None else "+".join(workloads)
        sign = ">=" if direction == "higher" else "<="
        scale = "" if factor == 1.0 else f"{factor:g} x "
        denominator = (
            f"{pick.__name__}(rows.*.{where}.{metric})" if reference == "best"
            else f"rows.{reference}.{where}.{metric}"
        )
        out.append({
            "claim": claim,
            "figure": figure,
            "direction": f"{arm} {sign} {scale}{reference}",
            "source": f"rows.{arm}.{where}.{metric} / {denominator}",
            "ratio": _round(ratio),
            "holds": bool(holds),
        })
    return out
