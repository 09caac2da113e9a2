"""Standard Workload Format (SWF) support.

The Parallel Workloads Archive distributes production traces (including
the ANL traces the paper's group uses) in SWF: one job per line, 18
whitespace-separated fields, ``;`` comment lines. We map the subset of
fields the scheduler needs onto :class:`~repro.workload.job.Job` and add
an extension convention for multi-resource requests: comment header lines
of the form ``; X-Resource: <name>`` declare extra per-job columns
appended after field 18.

This lets users plug a real Theta SWF trace (optionally extended with
burst-buffer columns) into every experiment in place of the synthetic
generator.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from math import inf

from repro.workload.job import Job

__all__ = ["parse_swf", "write_swf"]

# SWF field indices (0-based) of the columns we consume.
_SUBMIT = 1
_RUN = 3
_PROCS = 4
_REQ_PROCS = 7
_REQ_TIME = 8
_STATUS = 10
_N_FIELDS = 18


def parse_swf(
    path: str | os.PathLike,
    node_resource: str = "node",
    max_jobs: int | None = None,
    include_failed: bool = False,
    strict: bool = True,
) -> list[Job]:
    """Parse an SWF file into a list of :class:`Job`.

    Parameters
    ----------
    node_resource:
        Name under which requested processors are recorded in
        ``Job.requests``.
    max_jobs:
        Stop after this many jobs (useful for quick experiments).
    include_failed:
        SWF status 0 marks failed jobs; they are skipped by default.
    strict:
        Malformed lines (fewer than 18 fields, or non-numeric or
        non-finite values in a consumed column) raise
        :class:`ValueError` by default; with ``strict=False`` they are
        skipped — real archive traces occasionally carry truncated
        trailing lines.
    """
    extra_resources: list[str] = []
    jobs: list[Job] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith(";"):
                body = line.lstrip("; ").strip()
                if body.lower().startswith("x-resource:"):
                    extra_resources.append(body.split(":", 1)[1].strip())
                continue
            fields = line.split()
            if len(fields) < _N_FIELDS:
                if strict:
                    raise ValueError(
                        f"malformed SWF line ({len(fields)} fields): {line!r}"
                    )
                continue
            try:
                job = _job_from_fields(
                    fields, node_resource, extra_resources, include_failed
                )
            except ValueError:
                if strict:
                    raise ValueError(f"malformed SWF line: {line!r}")
                continue
            if job is not None:
                jobs.append(job)
                if max_jobs is not None and len(jobs) >= max_jobs:
                    break
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


def _finite(text: str) -> float:
    value = float(text)
    if not -inf < value < inf:
        raise ValueError(f"non-finite SWF value {text!r}")
    return value


def _job_from_fields(
    fields: list[str],
    node_resource: str,
    extra_resources: list[str],
    include_failed: bool,
) -> Job | None:
    status = int(_finite(fields[_STATUS]))
    if status == 0 and not include_failed:
        return None
    runtime = _finite(fields[_RUN])
    if runtime <= 0:
        return None
    procs = int(_finite(fields[_REQ_PROCS]))
    if procs <= 0:
        procs = int(_finite(fields[_PROCS]))
    if procs <= 0:
        return None
    req_time = _finite(fields[_REQ_TIME])
    if req_time <= 0:
        req_time = runtime
    requests = {node_resource: procs}
    for offset, name in enumerate(extra_resources):
        column = _N_FIELDS + offset
        if column < len(fields):
            requests[name] = max(0, int(_finite(fields[column])))
    return Job(
        job_id=int(_finite(fields[0])),
        submit_time=max(0.0, _finite(fields[_SUBMIT])),
        runtime=runtime,
        walltime=max(req_time, runtime),
        requests=requests,
    )


def write_swf(
    path: str | os.PathLike,
    jobs: Iterable[Job],
    node_resource: str = "node",
    extra_resources: Iterable[str] = (),
) -> None:
    """Write jobs to SWF, appending declared extra-resource columns."""
    extra = list(extra_resources)
    with open(path, "w") as handle:
        handle.write("; SWF written by repro.workload.swf\n")
        for name in extra:
            handle.write(f"; X-Resource: {name}\n")
        for job in jobs:
            fields = ["-1"] * _N_FIELDS
            fields[0] = str(job.job_id)
            fields[_SUBMIT] = f"{job.submit_time:.0f}"
            fields[2] = "0"  # wait time (unknown pre-simulation)
            fields[_RUN] = f"{job.runtime:.0f}"
            fields[_PROCS] = str(job.request(node_resource))
            fields[_REQ_PROCS] = str(job.request(node_resource))
            fields[_REQ_TIME] = f"{job.walltime:.0f}"
            fields[_STATUS] = "1"
            for name in extra:
                fields.append(str(job.request(name)))
            handle.write(" ".join(fields) + "\n")
