"""Set-up child: what a fresh interpreter pays before a workload can run.

Spawned by run.py (which exports the pinned thread environment and
``PYTHONPATH``), never imported. It times import, scenario load +
compile and one direct build of the workload's traces, and prints the
stages as one JSON line; the parent times the whole process for
``setup_s``. Nothing but ``sys`` and ``time`` is imported before
``repro.api``, so ``api.import_s`` is what a user's first import costs —
after run.py's own standard-library imports it reads a third lower.

With ``--traced`` (``cold_cli`` only) the child goes on to run the
scenario under the layer wrappers: import and start-up cannot be seen
by a wrapper in a process that is already warm, and here they share one
trace with the layers below them.
"""

import sys
import time

_t0 = time.perf_counter()
import repro.api as api  # noqa: E402

_import_s = time.perf_counter() - _t0

import dataclasses  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def build_traces(tasks) -> int:
    """Build every trace the cells will replay, as ``execute_task`` would
    (this is what triggers the lazy ``scipy.stats`` import); returns the
    number of jobs built."""
    from repro.experiments.harness import prepare_base_trace
    from repro.workload.suites import build_workload

    jobs = 0
    for task in tasks:
        config = dataclasses.replace(task.config, seed=task.seed)
        base, system = prepare_base_trace(config), config.system()
        for name in task.workloads:
            jobs += len(build_workload(name, base, system, seed=config.seed))
        if task.train:
            jobs += len(prepare_base_trace(config, n_jobs=config.jobs_per_trainset * 3))
    return jobs


def traced_run(workload, scenario: dict, load_compile_s: float) -> dict:
    """Run the scenario as ``repro run --json`` does, under the wrappers."""
    import check
    import trace as layer_trace

    problems: list[str] = []

    def run():
        result = api.run_scenario(scenario, progress=False)
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
        return result.results

    with layer_trace.tracing(
        lambda jobs, result: problems.extend(check.simulation_problems(jobs, result))
    ) as tracer:
        tracer.add("api.import", _import_s)
        tracer.add("api.load_compile", load_compile_s)
        tracer.run_id = 1
        results = tracer.wrap("run", run, coarse=True)()
    tally = check.Tally(workload.n_jobs, workload.cells)
    tally.record(results, problems)
    return {
        "layers": layer_trace.layer_metrics(tracer, 1),
        "traced_wall_s": tracer.total_s("run", "api.import", "api.load_compile"),
        "spans": tracer.spans,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
    }


def main(name: str, seed: str, *flags: str) -> int:
    workload = WORKLOADS[name]
    scenario = workload.scenario_for(int(seed))
    t0 = time.perf_counter()
    tasks = api.load_scenario(scenario).compile()
    load_compile_s = time.perf_counter() - t0
    doc = {"import_s": _import_s, "load_compile_s": load_compile_s}
    if workload.kind != "cli":  # cold_cli's set-up ends with the compile
        t0 = time.perf_counter()
        doc["jobs_built"] = build_traces(tasks)
        doc["trace_build_s"] = time.perf_counter() - t0
    if "--traced" in flags:
        doc.update(traced_run(workload, scenario, load_compile_s))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
