"""The stable programmatic surface: run scenarios, compare methods, list
components.

Everything here compiles down to :class:`~repro.exp.records.ExperimentTask`
cells executed by the :class:`~repro.exp.runner.ExperimentRunner`, so the
engine's guarantees (serial ≡ parallel determinism, config-hash result
caching, resumable checkpoints) hold for every entry point::

    import repro.api as api

    result = api.run_scenario("examples/scenarios/bb_heavy_mix.json", n_workers=4)
    print(result.summary())

    reports = api.compare(workloads=["S1", "S4"], methods=["mrsch", "heuristic"])
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.registry import (
    SCHEDULERS,
    SYSTEMS,
    WORKLOADS,
    paper_methods,
)
from repro.api.scenario import Scenario, load_scenario
from repro.exp.records import ExperimentTask, TaskResult
from repro.exp.runner import ExperimentRunner, pivot_results

if TYPE_CHECKING:
    from repro.cluster.system import SystemConfig
    from repro.experiments.config import ExperimentConfig
    from repro.sim.metrics import MetricReport

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "compare",
    "run_single",
    "list_schedulers",
    "list_workloads",
    "list_systems",
    "make_system",
    "describe_components",
    "render_reports",
]


@dataclass
class ScenarioResult:
    """Everything a scenario run produced, raw and pivoted."""

    scenario: Scenario
    tasks: list[ExperimentTask]
    results: list[TaskResult]
    #: ``{workload: {method label: MetricReport}}`` in scenario order
    reports: "dict[str, dict[str, MetricReport]]"

    def report(self, workload: str, method: str) -> "MetricReport":
        return self.reports[workload][method]

    def summary(self) -> str:
        """Aligned per-workload metric tables (the CLI's output)."""
        return render_reports(self.reports, self.scenario.name)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "scenario_hash": self.scenario.config_hash(),
            "reports": {
                w: {m: rep.full_dict() for m, rep in per.items()}
                for w, per in self.reports.items()
            },
            "wall_times": {r.key: r.wall_time for r in self.results},
            "sources": {r.key: r.source for r in self.results},
        }


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Sequence[float]],
    precision: int = 3,
) -> str:
    """Render ``{row label: values}`` as an aligned table."""
    header = ["", *columns]
    body = [
        [label, *(f"{v:.{precision}f}" if isinstance(v, float) else str(v) for v in values)]
        for label, values in rows.items()
    ]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    lines = [title, "-" * len(title)]
    for row in [header, *body]:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_reports(
    reports: "dict[str, dict[str, MetricReport]]", title: str
) -> str:
    """Render ``{workload: {method: report}}`` as aligned text tables."""
    blocks = []
    for workload, per_method in reports.items():
        columns = list(next(iter(per_method.values())).as_dict())
        rows = {
            label: [rep.as_dict().get(c, 0.0) for c in columns]
            for label, rep in per_method.items()
        }
        blocks.append(format_table(f"{title} — {workload}", columns, rows))
    return "\n\n".join(blocks)


def _ordered_reports(
    scenario: Scenario, results: list[TaskResult]
) -> "dict[str, dict[str, MetricReport]]":
    """Pivot results, preserving the scenario's workload/method order."""
    pivoted = pivot_results(results)
    multi_seed = len({r.seed for r in results}) > 1
    out: dict = {}
    for workload in scenario.workloads:
        per = pivoted[workload]
        if multi_seed:
            out[workload] = dict(per)  # labels carry "@seed" suffixes
        else:
            # Single-seed labels are exactly the entries' labels.
            out[workload] = {label: per[label] for label in scenario.labels}
    return out


def run_scenario(
    source: "Scenario | Mapping | str | Path",
    *,
    n_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    queue_dir: str | os.PathLike | None = None,
    progress: bool | None = None,
) -> ScenarioResult:
    """Load, compile and execute a scenario on the experiment engine.

    ``source`` may be a :class:`Scenario`, a plain mapping, or a path to
    a scenario file; the scenario alone says what the study computes.
    The keywords say only how it runs: the worker count, the result
    cache, the checkpoint journal, the work queue and the progress bar.
    Results are bit-identical for any worker count.

    A scenario's ``execution`` block says how it runs: ``queue_dir``
    names a work queue (:mod:`repro.dist`) that elastic ``repro work``
    workers may join, and ``workers`` above 1 without one runs a private
    temporary queue. Explicit ``n_workers``/``queue_dir`` arguments
    override the block's values; metrics are bit-identical in every mode.
    """
    scenario = load_scenario(source)
    execution = scenario.execution or {}
    if n_workers is None:
        n_workers = int(execution.get("workers", 1))
    runner = ExperimentRunner(
        n_workers=n_workers,
        cache_dir=cache_dir,
        checkpoint_path=checkpoint_path,
        queue_dir=(
            queue_dir if queue_dir is not None else execution.get("queue_dir")
        ),
        lease_ttl=float(execution.get("lease_ttl", 30.0)),
        cell_timeout_s=(
            float(execution["cell_timeout_s"])
            if execution.get("cell_timeout_s")
            else None
        ),
        supervise=bool(execution.get("supervise", False)),
        progress=progress,
    )
    tasks = scenario.compile()
    results = runner.run(tasks)
    return ScenarioResult(
        scenario=scenario,
        tasks=tasks,
        results=results,
        reports=_ordered_reports(scenario, results),
    )


def compare(
    workloads: Sequence[str],
    methods: Sequence[str] | None = None,
    config: "ExperimentConfig | None" = None,
    *,
    seeds: Sequence[int] | None = None,
    replications: int = 1,
    train: bool = True,
    case_study: bool | None = None,
    goal: Mapping | None = None,
    options: Mapping | None = None,
    n_workers: int = 1,
) -> "dict[str, dict[str, MetricReport]]":
    """Run a (method × workload × seed) comparison grid.

    The programmatic equivalent of ``repro compare``: builds an inline
    :class:`Scenario` and returns ``{workload: {method: MetricReport}}``
    in the caller's ordering. ``methods`` defaults to the paper's four
    §IV-D methods; ``config`` carries the sizing (its seed is the grid's
    root seed), written into the scenario's ``system``, ``seed`` and
    ``config`` sections, and the grid runs on ``n_workers`` workers.
    """
    from repro.experiments.config import ExperimentConfig

    requested = tuple(methods or paper_methods())
    scenario = Scenario(
        name="compare",
        methods=requested,
        workloads=tuple(workloads),
        seeds=tuple(seeds) if seeds is not None else None,
        replications=replications,
        train=train,
        case_study=case_study,
        goal=dict(goal or {}),
        options=dict(options or {}),
        **Scenario.sections_for(config or ExperimentConfig()),
    )
    reports = run_scenario(scenario, n_workers=n_workers).reports
    # Scenario canonicalises spellings ("Heuristic" → "heuristic"); hand
    # the caller back their own names, as the legacy harness did. Multi-
    # seed labels carry an "@seed" suffix after the method name.
    rename = {c: r for c, r in zip(scenario.labels, requested) if c != r}
    if not rename:
        return reports

    def restore(label: str) -> str:
        name, sep, seed = label.partition("@")
        return rename.get(name, name) + sep + seed

    return {
        w: {restore(label): rep for label, rep in per.items()}
        for w, per in reports.items()
    }


def run_single(
    workload: str,
    method: str,
    config: "ExperimentConfig | None" = None,
    train: bool = True,
    **kwargs,
):
    """Run one (method, workload) pair; returns ``(result, scheduler)``.

    The cell a grid runs (:func:`repro.exp.tasks.replay_cell`), keeping
    the scheduler — for agent internals such as the MRSch goal log
    behind Figs 8–9 — and replayed with ``record_timeline`` on: the
    Eq. 1 goal is logged at every scheduling instance
    (``scheduler.goal_series()``, empty after a grid cell's unrecorded
    replay). Extra ``kwargs`` reach the scheduler constructor
    (a scenario's per-method options).
    """
    from repro.exp.tasks import replay_cell
    from repro.experiments.config import ExperimentConfig

    sched, replays = replay_cell(
        method,
        (workload,),
        config or ExperimentConfig(),
        train=train,
        case_study=WORKLOADS.get(workload).case_study,
        extra=kwargs,
        record_timeline=True,
    )
    return dict(replays)[workload], sched


# -- component listings -------------------------------------------------------


def list_schedulers() -> tuple[str, ...]:
    """Registered scheduler names, registration order."""
    return SCHEDULERS.names()


def list_workloads() -> tuple[str, ...]:
    """Registered workload names, registration order."""
    return WORKLOADS.names()


def list_systems() -> tuple[str, ...]:
    """Registered system names, registration order."""
    return SYSTEMS.names()


def make_system(name: str = "mini_theta", **sizing) -> "SystemConfig":
    """Build a registered system (``nodes=...``/``bb_units=...`` sizing)."""
    return SYSTEMS.get(name).build(**sizing)


def describe_components() -> dict:
    """Structured snapshot of all three registries (CLI ``list --json``)."""
    return {
        "schedulers": [
            {"name": e.name, "description": e.description, **e.capabilities()}
            for e in SCHEDULERS.entries()
        ],
        "workloads": [
            {"name": e.name, "description": e.description, **e.capabilities()}
            for e in WORKLOADS.entries()
        ],
        "systems": [
            {"name": e.name, "description": e.description}
            for e in SYSTEMS.entries()
        ],
    }
