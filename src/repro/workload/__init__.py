"""Workload substrate: job model, trace parsing/generation, paper suites.

The paper evaluates on a five-month 2018 Theta (ALCF) trace extended with
burst-buffer requests mined from Darshan I/O logs, and derives workloads
S1–S5 (Table III) plus power-extended S6–S10 (§V-E). This package builds
each of those pieces:

``job``
    The :class:`Job` model — rigid parallel jobs with per-resource
    requests in units.
``swf``
    Standard Workload Format parser/writer for plugging in real traces.
``theta``
    Statistical Theta-like trace generator (diurnal Poisson arrivals,
    heavy-tailed runtimes, power-of-two-biased node counts).
``darshan``
    Synthetic Darshan I/O record generation and the record→burst-buffer
    request extraction the paper describes (§IV-A).
``suites``
    Table III S1–S5 builders and the §V-E power case-study S6–S10.
``sampling``
    Curriculum job sets (sampled / real / synthetic) for §III-D training.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workload.job": ["Job"],
    "repro.workload.swf": ["parse_swf", "write_swf"],
    "repro.workload.theta": ["ThetaTraceConfig", "generate_theta_trace"],
    "repro.workload.darshan": [
        "DarshanRecord", "generate_darshan_records", "extract_bb_requests",
    ],
    "repro.workload.suites": [
        "WorkloadSpec", "WORKLOAD_SPECS", "build_workload", "build_case_study_workload",
    ],
    "repro.workload.sampling": ["poisson_resample", "split_trace", "build_curriculum"],
})
