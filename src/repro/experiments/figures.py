"""Per-figure experiment entry points (DESIGN.md §4 index).

Every function regenerates the data behind one paper figure or study and
returns a dict with at least:

* ``data`` — the raw rows/series, and
* ``text`` — a printable rendering (what the benchmark harness emits).

Absolute numbers differ from the paper (miniature system, synthetic
trace, NumPy network) — EXPERIMENTS.md records the shape-level
comparison for each figure.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.api.registry import paper_workloads
from repro.core.mrsch import MRSchScheduler
from repro.api.facade import compare, run_single
from repro.experiments.harness import (
    PAPER_METHODS,
    ExperimentConfig,
    make_method,
    prepare_base_trace,
    train_method,
)
from repro.experiments.report import format_boxstats, format_series, format_table
from repro.exp import ExperimentRunner, ExperimentTask, pivot_results
from repro.sim.metrics import MetricReport, kiviat_normalize
from repro.utils.rng import as_generator

__all__ = [
    "fig3_mlp_vs_cnn",
    "fig4_training_order",
    "fig5_fig6_comparison",
    "fig7_kiviat",
    "fig8_rbb_timeline",
    "fig9_rbb_distribution",
    "fig10_three_resources",
    "overhead_study",
]

S_WORKLOADS = paper_workloads()
CASE_WORKLOADS = paper_workloads(case_study=True)

_METRIC_COLUMNS = ("node_util", "bb_util", "avg_wait_h", "avg_slowdown")


def _metric_rows(
    reports: dict[str, dict[str, MetricReport]], method_order: list[str]
) -> dict[str, dict[str, list[float]]]:
    """Pivot {workload: {method: report}} into per-metric tables."""
    tables: dict[str, dict[str, list[float]]] = {m: {} for m in _METRIC_COLUMNS}
    for metric in _METRIC_COLUMNS:
        for method in method_order:
            tables[metric][method] = [
                reports[w][method].as_dict()[metric] for w in reports
            ]
    return tables


# -- Fig. 3: MLP vs CNN state module ---------------------------------------


def fig3_mlp_vs_cnn(
    config: ExperimentConfig | None = None,
    workloads: tuple[str, ...] = S_WORKLOADS,
    n_workers: int = 1,
) -> dict:
    """State-module ablation (§V-A): identical agents except the state net.

    Runs the *pure DFP* policy (no feasibility prior) — the ablation
    measures what each state architecture lets the network learn, which
    the prior would otherwise mask. The two variants are independent
    grid cells, so they parallelise across workers.
    """
    config = config or ExperimentConfig()
    runner = ExperimentRunner(n_workers=n_workers)
    tasks = [
        ExperimentTask(
            method="mrsch",
            workloads=tuple(workloads),
            seed=config.seed,
            config=config,
            train=True,
            extra=(("state_module", variant), ("prior_weight", 0.0)),
            label=variant.upper(),
        )
        for variant in ("mlp", "cnn")
    ]
    reports = pivot_results(runner.run(tasks))
    reports = {w: reports[w] for w in workloads}
    tables = _metric_rows(reports, ["MLP", "CNN"])
    text = "\n\n".join(
        format_table(f"Fig 3 — {metric} (columns: {', '.join(workloads)})",
                     list(workloads), rows)
        for metric, rows in tables.items()
    )
    return {"data": reports, "tables": tables, "text": text}


# -- Fig. 4: training-order convergence --------------------------------------


def fig4_training_order(
    config: ExperimentConfig | None = None,
    orders: list[tuple[str, str, str]] | None = None,
) -> dict:
    """Curriculum ordering study (§V-B): loss trajectories per ordering."""
    config = config or ExperimentConfig()
    system = config.system()
    base = prepare_base_trace(config, n_jobs=config.jobs_per_trainset * 3)
    orders = orders or [
        tuple(p) for p in itertools.permutations(("sampled", "real", "synthetic"))
    ]
    curves: dict[str, list[float]] = {}
    finals: dict[str, float] = {}
    for order in orders:
        label = "+".join(o.capitalize() for o in order)
        sched = make_method("mrsch", system, config)
        result = train_method(sched, system, config, base_jobs=base, order=order)
        assert result is not None
        curves[label] = result.losses
        finals[label] = result.final_loss()
    text = format_series("Fig 4 — MSE loss per episode, by jobset ordering", curves)
    best = min(finals, key=finals.get)  # type: ignore[arg-type]
    text += f"\n\nLowest final loss: {best} ({finals[best]:.4f})"
    return {"data": curves, "final_losses": finals, "best": best, "text": text}


# -- Figs 5 & 6: method comparison ----------------------------------------


def fig5_fig6_comparison(
    config: ExperimentConfig | None = None,
    workloads: tuple[str, ...] = S_WORKLOADS,
    methods: tuple[str, ...] = PAPER_METHODS,
    n_workers: int = 1,
) -> dict:
    """System-level (Fig 5) and user-level (Fig 6) comparison grids."""
    reports = compare(
        list(workloads), list(methods), config, n_workers=n_workers
    )
    tables = _metric_rows(reports, list(methods))
    fig5 = "\n\n".join(
        format_table(f"Fig 5 — {metric} (columns: {', '.join(workloads)})",
                     list(workloads), tables[metric])
        for metric in ("node_util", "bb_util")
    )
    fig6 = "\n\n".join(
        format_table(f"Fig 6 — {metric} (columns: {', '.join(workloads)})",
                     list(workloads), tables[metric])
        for metric in ("avg_wait_h", "avg_slowdown")
    )
    return {"data": reports, "tables": tables, "text": fig5 + "\n\n" + fig6}


# -- Fig. 7: Kiviat charts ---------------------------------------------------


def fig7_kiviat(
    reports: dict[str, dict[str, MetricReport]] | None = None,
    config: ExperimentConfig | None = None,
    workloads: tuple[str, ...] = S_WORKLOADS,
    n_workers: int = 1,
) -> dict:
    """Normalized radar axes per workload; reuses Fig 5/6 runs if given."""
    if reports is None:
        reports = compare(
            list(workloads), config=config, n_workers=n_workers
        )
    charts = {w: kiviat_normalize(rs) for w, rs in reports.items()}
    areas = {
        w: {m: _kiviat_area(list(axes.values())) for m, axes in chart.items()}
        for w, chart in charts.items()
    }
    blocks = []
    for w, chart in charts.items():
        axis_names = list(next(iter(chart.values())).keys())
        rows = {m: [axes[a] for a in axis_names] for m, axes in chart.items()}
        blocks.append(format_table(f"Fig 7 — {w} (normalized axes)", axis_names, rows))
    return {"data": charts, "areas": areas, "text": "\n\n".join(blocks)}


def _kiviat_area(values: list[float]) -> float:
    """Polygon area on equally-spaced radar axes (larger = better)."""
    n = len(values)
    if n < 3:
        return 0.0
    angle = 2 * np.pi / n
    return float(
        0.5 * np.sin(angle) * sum(values[i] * values[(i + 1) % n] for i in range(n))
    )


# -- Figs 8 & 9: goal-vector dynamics ----------------------------------------


def fig8_rbb_timeline(
    config: ExperimentConfig | None = None,
    workload: str = "S5",
    window_hours: float = 12.0,
    train: bool = True,
) -> dict:
    """rBB over a 12-hour window of an MRSch run on S5 (§V-D)."""
    config = config or ExperimentConfig()
    result, sched = run_single(workload, "mrsch", config, train=train)
    assert isinstance(sched, MRSchScheduler)
    times, goals = sched.goal_series()
    if times.size == 0:
        raise RuntimeError("no goal samples recorded")
    bb_index = sched.system.names.index("burst_buffer")
    # A deterministic "randomly selected" window: centred on the run.
    mid = 0.5 * (times[0] + times[-1])
    half = window_hours * 3600.0 / 2
    mask = (times >= mid - half) & (times <= mid + half)
    if not mask.any():
        mask = np.ones_like(times, dtype=bool)
    series = {"rBB": goals[mask, bb_index].tolist(), "t_hours": ((times[mask] - times[mask][0]) / 3600).tolist()}
    text = format_series(
        f"Fig 8 — rBB over a {window_hours:.0f}h window of {workload}",
        {"rBB": series["rBB"]},
    )
    stats = {
        "min": float(np.min(series["rBB"])),
        "max": float(np.max(series["rBB"])),
        "mean": float(np.mean(series["rBB"])),
    }
    text += f"\nrange [{stats['min']:.3f}, {stats['max']:.3f}], mean {stats['mean']:.3f}"
    return {"data": series, "stats": stats, "text": text}


def fig9_rbb_distribution(
    config: ExperimentConfig | None = None,
    workloads: tuple[str, ...] = S_WORKLOADS,
    train: bool = False,
) -> dict:
    """Box statistics of rBB across S1–S5 (§V-D).

    rBB is a property of the workload/goal computation (Eq. 1), not of
    the learned policy, so the default skips training for speed.
    """
    config = config or ExperimentConfig()
    stats: dict[str, dict[str, float]] = {}
    for workload in workloads:
        _, sched = run_single(workload, "mrsch", config, train=train)
        assert isinstance(sched, MRSchScheduler)
        _, goals = sched.goal_series()
        bb = goals[:, sched.system.names.index("burst_buffer")]
        stats[workload] = {
            "min": float(bb.min()),
            "q1": float(np.percentile(bb, 25)),
            "median": float(np.median(bb)),
            "q3": float(np.percentile(bb, 75)),
            "max": float(bb.max()),
            "mean": float(bb.mean()),
        }
    text = format_boxstats("Fig 9 — rBB distribution per workload", stats)
    return {"data": stats, "text": text}


# -- Fig. 10: three-resource case study ------------------------------------


def fig10_three_resources(
    config: ExperimentConfig | None = None,
    workloads: tuple[str, ...] = CASE_WORKLOADS,
    methods: tuple[str, ...] = PAPER_METHODS,
    n_workers: int = 1,
) -> dict:
    """§V-E: CPU + burst buffer + power, workloads S6–S10."""
    reports = compare(
        list(workloads),
        list(methods),
        config,
        case_study=True,
        n_workers=n_workers,
    )
    charts = {w: kiviat_normalize(rs, include_power=True) for w, rs in reports.items()}
    areas = {
        w: {m: _kiviat_area(list(axes.values())) for m, axes in chart.items()}
        for w, chart in charts.items()
    }
    blocks = []
    for w, chart in charts.items():
        axis_names = list(next(iter(chart.values())).keys())
        rows = {m: [axes[a] for a in axis_names] for m, axes in chart.items()}
        blocks.append(format_table(f"Fig 10 — {w} (normalized axes)", axis_names, rows))
    return {"data": reports, "charts": charts, "areas": areas, "text": "\n\n".join(blocks)}


# -- §V-F: decision overhead --------------------------------------------------


def overhead_study(
    config: ExperimentConfig | None = None,
    n_decisions: int = 200,
) -> dict:
    """Per-decision latency of the MRSch agent, 2- and 3-resource (§V-F).

    The paper reports <2 s (two resources) and <3 s (three resources)
    per decision on a laptop-class machine; this measures the same
    quantity — one encode + forward + argmax — on this system.
    """
    config = config or ExperimentConfig()
    timings: dict[str, float] = {}
    for label, case_study in (("2 resources", False), ("3 resources", True)):
        system = config.system()
        if case_study:
            from repro.workload.suites import powered_system

            system = powered_system(system)
        sched = make_method("mrsch", system, config)
        assert isinstance(sched, MRSchScheduler)
        rng = as_generator(config.seed)
        state = rng.random(sched.encoder.state_dim)
        meas = rng.random(system.n_resources)
        goal = np.full(system.n_resources, 1.0 / system.n_resources)
        mask = np.ones(config.window_size, dtype=bool)
        sched.agent.act(state, meas, goal, mask)  # warm-up
        t0 = time.perf_counter()
        for _ in range(n_decisions):
            sched.agent.act(state, meas, goal, mask)
        timings[label] = (time.perf_counter() - t0) / n_decisions
    rows = {k: [v * 1000.0] for k, v in timings.items()}
    text = format_table("§V-F — mean decision latency", ["ms/decision"], rows)
    return {"data": timings, "text": text}
