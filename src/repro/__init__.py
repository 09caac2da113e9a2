"""repro — a full reproduction of *MRSch: Multi-Resource Scheduling for
HPC* (Li et al., IEEE Cluster 2022).

MRSch is an intelligent multi-resource HPC scheduling agent built on
Direct Future Prediction (DFP), a multi-objective reinforcement-learning
algorithm. This library implements the complete system described in the
paper plus every substrate its evaluation depends on:

* :mod:`repro.core` — the MRSch agent (vector state encoding, dynamic
  goal vector, DFP network, curriculum training);
* :mod:`repro.sched` — the shared window/reservation/EASY-backfill
  machinery and the three comparison methods (FCFS heuristic, NSGA-II
  optimization, fixed-weight scalar RL);
* :mod:`repro.sim` — a CQSim-like event-driven trace simulator and the
  paper's evaluation metrics;
* :mod:`repro.cluster` — the unit-based multi-resource system model;
* :mod:`repro.workload` — Theta-like trace generation, synthetic
  Darshan I/O records, Table III workloads S1–S5 and the §V-E power
  case study S6–S10;
* :mod:`repro.nn` — the NumPy neural-network substrate (MLP/CNN,
  Adam, MSE) standing in for TensorFlow;
* :mod:`repro.experiments` — one harness entry point per paper figure
  and table.

Quickstart::

    from repro import (SystemConfig, ThetaTraceConfig, generate_theta_trace,
                       build_workload, Simulator)
    from repro.api import SCHEDULERS

    system = SystemConfig.mini_theta()
    base = generate_theta_trace(ThetaTraceConfig(total_nodes=128, n_jobs=300), seed=1)
    jobs = build_workload("S4", base, system, seed=1)
    sched = SCHEDULERS.get("heuristic").build(system)
    result = Simulator(system, sched).run(jobs)
    print(result.metrics.as_dict())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.resources": [
        "ResourceSpec", "SystemConfig", "ResourcePool", "NODE", "BURST_BUFFER", "POWER",
    ],
    "repro.workload.job": ["Job"],
    "repro.workload.theta": ["ThetaTraceConfig", "generate_theta_trace"],
    "repro.workload.suites": [
        "build_workload", "build_case_study_workload", "WORKLOAD_SPECS", "CASE_STUDY_SPECS",
    ],
    "repro.workload.sampling": ["split_trace", "build_curriculum"],
    "repro.workload.swf": ["parse_swf", "write_swf"],
    "repro.sim.simulator": ["Simulator", "SimulationResult"],
    "repro.sim.metrics": ["MetricReport", "compute_metrics"],
    "repro.sched.base": ["Scheduler", "SchedulingContext"],
    "repro.sched.fcfs": ["FCFSScheduler"],
    "repro.sched.ga": ["GAScheduler"],
    "repro.sched.scalar_rl": ["ScalarRLScheduler"],
    "repro.core.mrsch": ["MRSchScheduler"],
    "repro.core.dfp": ["DFPConfig", "DFPNetwork", "DFPAgent"],
    "repro.core.training": ["train_episodes", "curriculum_training", "TrainingResult"],
})
__all__ = ["__version__", *__all__]
