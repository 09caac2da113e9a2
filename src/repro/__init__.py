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

from repro.cluster.resources import (
    BURST_BUFFER,
    NODE,
    POWER,
    ResourcePool,
    ResourceSpec,
    SystemConfig,
)
from repro.core.dfp import DFPAgent, DFPConfig, DFPNetwork
from repro.core.mrsch import MRSchScheduler
from repro.core.training import TrainingResult, curriculum_training, train_episodes
from repro.sched.base import Scheduler, SchedulingContext
from repro.sched.fcfs import FCFSScheduler
from repro.sched.ga import GAScheduler
from repro.sched.scalar_rl import ScalarRLScheduler
from repro.sim.metrics import MetricReport, compute_metrics, kiviat_normalize
from repro.sim.simulator import SimulationResult, Simulator
from repro.workload.job import Job
from repro.workload.sampling import build_curriculum, split_trace
from repro.workload.suites import (
    CASE_STUDY_SPECS,
    WORKLOAD_SPECS,
    build_case_study_workload,
    build_workload,
)
from repro.workload.swf import parse_swf, write_swf
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster
    "ResourceSpec",
    "SystemConfig",
    "ResourcePool",
    "NODE",
    "BURST_BUFFER",
    "POWER",
    # workload
    "Job",
    "ThetaTraceConfig",
    "generate_theta_trace",
    "build_workload",
    "build_case_study_workload",
    "WORKLOAD_SPECS",
    "CASE_STUDY_SPECS",
    "split_trace",
    "build_curriculum",
    "parse_swf",
    "write_swf",
    # simulation
    "Simulator",
    "SimulationResult",
    "MetricReport",
    "compute_metrics",
    "kiviat_normalize",
    # scheduling
    "Scheduler",
    "SchedulingContext",
    "FCFSScheduler",
    "GAScheduler",
    "ScalarRLScheduler",
    # MRSch core
    "MRSchScheduler",
    "DFPConfig",
    "DFPNetwork",
    "DFPAgent",
    "train_episodes",
    "curriculum_training",
    "TrainingResult",
]
