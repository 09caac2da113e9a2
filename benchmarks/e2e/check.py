"""Output checks behind the benchmark's ``failed`` count.

An *operation* is one cell (one ``TaskResult``) of a timed run. The
benchmark only ever asks for fresh executions of deterministic cells, so
a cell fails when its result did not come from a live run, carries a
value a scheduler simulation cannot produce, or differs from the same
cell computed earlier in the same process.
"""

from __future__ import annotations

import hashlib
import json
import math


def report_problems(report, n_jobs: int) -> list[str]:
    """What is wrong with one ``MetricReport``, as short reasons."""
    fields = report.full_dict()
    problems = [
        f"{name} is not finite"
        for name, value in fields.items()
        if name != "utilization" and not math.isfinite(value)
    ]
    for resource, value in fields["utilization"].items():
        if not math.isfinite(value):
            problems.append(f"utilization[{resource}] is not finite")
        elif not 0.0 <= value <= 1.0:
            problems.append(f"utilization[{resource}]={value} outside [0, 1]")
    if report.avg_wait < 0:
        problems.append(f"avg_wait={report.avg_wait} is negative")
    if report.avg_slowdown < 1:
        problems.append(f"avg_slowdown={report.avg_slowdown} is below 1")
    if report.n_jobs != n_jobs:
        problems.append(f"n_jobs={report.n_jobs}, scenario asked for {n_jobs}")
    return problems


def cell_problems(result, n_jobs: int) -> list[str]:
    """What is wrong with one ``TaskResult`` (empty list: the cell passes)."""
    problems = []
    if result.source != "run":
        problems.append(f"source={result.source!r}, expected a live run")
    if set(result.metrics) != set(result.workloads):
        problems.append("reports do not cover the cell's workloads")
    for workload, report in result.metrics.items():
        problems += [f"{workload}: {p}" for p in report_problems(report, n_jobs)]
    return problems


def cell_digest(result) -> str:
    """sha256 of the canonical ``full_dict()`` of a cell's reports."""
    doc = {w: result.metrics[w].full_dict() for w in sorted(result.metrics)}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(results) -> str:
    """One digest over every cell of a run, independent of cell order."""
    cells = sorted((r.key, cell_digest(r)) for r in results)
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def count_failed(results, n_jobs: int, reference: dict[str, str]) -> tuple[int, list[str]]:
    """Failed cells of one run, with reasons.

    ``reference`` maps cell key to the digest of its first sighting in
    this process and is filled in as new cells appear: a later run of
    the same cell must reproduce it bit for bit.
    """
    failed, reasons = 0, []
    for result in results:
        problems = cell_problems(result, n_jobs)
        digest = cell_digest(result)
        if reference.setdefault(result.key, digest) != digest:
            problems.append("metrics differ from an earlier run of the same cell")
        if problems:
            failed += 1
            reasons += [f"cell {result.key[:8]}: {p}" for p in problems]
    return failed, reasons


def simulation_problems(submitted, result) -> list[str]:
    """Per-job invariants of one ``SimulationResult``.

    Every submitted job appears exactly once, starts no earlier than it
    was submitted, and has a finite end.
    """
    problems = []
    expected = sorted(job.job_id for job in submitted)
    seen = sorted(job.job_id for job in result.jobs)
    if seen != expected:
        problems.append(
            f"{len(seen)} jobs out for {len(expected)} in, or ids differ"
        )
    for job in result.jobs:
        if job.start_time is None or job.start_time < job.submit_time:
            problems.append(f"job {job.job_id} started before it was submitted")
        elif job.end_time is None or not math.isfinite(job.end_time):
            problems.append(f"job {job.job_id} has no finite end")
    return problems


class Tally:
    """Attempted and failed cells over every run of one process."""

    def __init__(self, n_jobs: int, cells_per_run: int) -> None:
        self.n_jobs = n_jobs
        self.cells_per_run = cells_per_run
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        #: digest of the last run recorded
        self.digest = ""
        self._reference: dict[str, str] = {}

    def add(self, attempted: int, failed: int, reasons) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons

    def record(self, results, simulation_problems=()) -> None:
        failed, reasons = count_failed(results, self.n_jobs, self._reference)
        if simulation_problems:  # a broken invariant fails the whole run
            failed, reasons = len(results), reasons + list(simulation_problems)
        self.add(len(results), failed, reasons)
        self.digest = result_digest(results)

    def crashed(self, error: BaseException) -> None:
        """A run that raised fails every cell it was asked for."""
        self.add(self.cells_per_run, self.cells_per_run,
                 [f"run raised {type(error).__name__}: {error}"])
