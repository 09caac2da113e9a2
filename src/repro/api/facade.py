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
    from repro.cluster.resources import SystemConfig
    from repro.experiments.harness import ExperimentConfig
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


def render_reports(
    reports: "dict[str, dict[str, MetricReport]]", title: str
) -> str:
    """Render ``{workload: {method: report}}`` as aligned text tables."""
    from repro.experiments.report import format_table

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
            # Single-seed labels are exactly the canonical method names.
            out[workload] = {m: per[m] for m in scenario.methods}
    return out


def run_scenario(
    source: "Scenario | Mapping | str | Path",
    *,
    config: "ExperimentConfig | None" = None,
    runner: ExperimentRunner | None = None,
    n_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    queue_dir: str | os.PathLike | None = None,
    progress: bool | None = None,
) -> ScenarioResult:
    """Load, compile and execute a scenario on the experiment engine.

    ``source`` may be a :class:`Scenario`, a plain mapping, or a path to
    a scenario file. ``config`` substitutes a pre-built
    :class:`ExperimentConfig` for the scenario-derived one (the harness
    shims use this); ``runner`` supplies a fully configured engine,
    otherwise one is built from ``n_workers``/``cache_dir``/
    ``checkpoint_path``. Results are bit-identical for any worker count.

    A scenario with an ``execution`` block picks its dispatch mode:
    ``{"dispatch": "queue", "queue_dir": ..., "workers": N}`` runs the
    grid through the shared-directory work queue (:mod:`repro.dist`) —
    elastic ``repro work`` workers may join mid-run. Explicit
    ``n_workers``/``queue_dir`` arguments override the block's values;
    metrics are bit-identical in every mode.
    """
    scenario = load_scenario(source)
    if config is not None:
        # The scenario validated against its own system section; a
        # substituted config may name a different system entirely.
        scenario.validate_system(config)
    if runner is not None and (cache_dir is not None or checkpoint_path is not None):
        raise ValueError(
            "pass cache_dir/checkpoint_path either to run_scenario "
            "or to the ExperimentRunner, not both — the explicit runner "
            "would silently run without them"
        )
    execution = scenario.execution or {}
    if queue_dir is not None and runner is not None:
        raise ValueError(
            "pass queue_dir either to run_scenario or to the "
            "ExperimentRunner, not both"
        )
    if n_workers is None:
        n_workers = int(execution.get("workers", 1))
    runner = runner or ExperimentRunner(
        n_workers=n_workers,
        cache_dir=cache_dir,
        checkpoint_path=checkpoint_path,
        # Scenario validation already ties execution.dispatch to
        # execution.queue_dir; the runner derives the path from this.
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
    tasks = scenario.compile(config=config)
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
    runner: ExperimentRunner | None = None,
    n_workers: int = 1,
) -> "dict[str, dict[str, MetricReport]]":
    """Run a (method × workload × seed) comparison grid.

    The programmatic equivalent of ``repro compare``: builds an inline
    :class:`Scenario` and returns ``{workload: {method: MetricReport}}``
    in the caller's ordering. ``methods`` defaults to the paper's four
    §IV-D methods; ``config`` carries the sizing (its seed is the grid's
    root seed).
    """
    requested = tuple(methods or paper_methods())
    scenario = Scenario(
        name="compare",
        methods=requested,
        workloads=tuple(workloads),
        # Mirror the caller's config so validation (workload resource
        # requirements in particular) runs against the system that will
        # actually execute, not the default mini_theta.
        system=(
            {"name": config.system_name, "nodes": config.nodes,
             "bb_units": config.bb_units}
            if config is not None
            else {"name": "mini_theta"}
        ),
        seed=config.seed if config is not None else 2022,
        seeds=tuple(seeds) if seeds is not None else None,
        replications=replications,
        train=train,
        case_study=case_study,
        goal=dict(goal or {}),
        options=dict(options or {}),
    )
    result = run_scenario(
        scenario, config=config, runner=runner, n_workers=n_workers
    )
    # Scenario canonicalises spellings ("Heuristic" → "heuristic"); hand
    # the caller back their own names, as the legacy harness did. Multi-
    # seed labels carry an "@seed" suffix after the method name.
    rename = {c: r for c, r in zip(scenario.methods, requested) if c != r}
    if not rename:
        return result.reports

    def restore(label: str) -> str:
        name, sep, seed = label.partition("@")
        return rename.get(name, name) + sep + seed

    return {
        w: {restore(label): rep for label, rep in per.items()}
        for w, per in result.reports.items()
    }


def run_single(
    workload: str,
    method: str,
    config: "ExperimentConfig | None" = None,
    train: bool = True,
    **kwargs,
):
    """Run one (method, workload) pair; returns ``(result, scheduler)``.

    The scheduler instance is returned so callers can inspect agent
    internals (e.g. the MRSch goal-vector log behind Figs 8–9). Extra
    ``kwargs`` reach the scheduler constructor — pass a scenario's
    per-method options to inspect the identically-configured agent.
    """
    from repro.experiments.harness import run_single as _run_single

    return _run_single(workload, method, config=config, train=train, **kwargs)


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
