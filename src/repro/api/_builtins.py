"""Built-in registrations: the paper's methods, workloads and systems.

Imported (once) by :mod:`repro.api.registry` on first lookup. Scheduler
factories import their implementation modules lazily so that listing
names — the CLI's ``repro list``, scenario validation — never pays for
the neural-network stack (``tests/integration/test_cold_start.py``).

Registration order is the paper's reporting order; it defines what
:func:`repro.api.registry.paper_methods` and
:func:`repro.api.registry.paper_workloads` return.
"""

from __future__ import annotations

from repro.api.registry import (
    register_scheduler,
    register_system,
    register_workload,
)
from repro.workload.suites import (
    CASE_STUDY_SPECS,
    WORKLOAD_SPECS,
    build_workload,
)

# -- schedulers (§IV-D comparison methods) -----------------------------------


@register_scheduler(
    "mrsch",
    description="MRSch: multi-resource DFP agent with dynamic goal (the paper)",
    trainable=True,
    paper=True,
    goal_options={"dynamic": "dynamic_goal", "prior_weight": "prior_weight"},
    allowed_kwargs=("backfill", "dfp_config", "state_module", "agent",
                    "time_scale", "prior_weight", "dynamic_goal"),
)
def _make_mrsch(system, window_size=10, seed=None, **kwargs):
    from repro.core.mrsch import MRSchScheduler

    return MRSchScheduler(system, window_size=window_size, seed=seed, **kwargs)


@register_scheduler(
    "optimization",
    description="NSGA-II multi-objective window ordering (Optimization baseline)",
    paper=True,
    config_options={"ga_config": "config"},
    allowed_kwargs=("backfill", "config"),
)
def _make_ga(system, window_size=10, seed=None, **kwargs):
    from repro.sched.ga import GAScheduler

    return GAScheduler(window_size=window_size, seed=seed, **kwargs)


@register_scheduler(
    "scalar_rl",
    description="Fixed-weight REINFORCE over scalarised utilization (Scalar RL baseline)",
    trainable=True,
    paper=True,
    goal_options={"weights": "reward_weights"},
    allowed_kwargs=("backfill", "hidden", "lr", "gamma", "reward_weights",
                    "walltime_scale", "wait_scale"),
)
def _make_scalar_rl(system, window_size=10, seed=None, **kwargs):
    from repro.sched.scalar_rl import ScalarRLScheduler

    return ScalarRLScheduler(system, window_size=window_size, seed=seed, **kwargs)


@register_scheduler(
    "heuristic",
    description="FCFS list scheduling with EASY backfilling (Heuristic baseline)",
    seeded=False,
    paper=True,
    allowed_kwargs=("backfill",),
)
def _make_fcfs(system, window_size=10, seed=None, **kwargs):
    from repro.sched.fcfs import FCFSScheduler

    return FCFSScheduler(window_size=window_size, **kwargs)


# -- workloads (Table III and §V-E) ------------------------------------------


def _register_spec_workloads() -> None:
    for spec in WORKLOAD_SPECS.values():
        register_workload(
            spec.name,
            description=(
                f"Table III {spec.name}: {spec.bb_fraction:.0%} of jobs with "
                f"BB requests in [{spec.bb_lo_frac:.3f}, {spec.bb_hi_frac:.3f}] "
                f"of capacity"
                + (", half-scale node requests" if spec.node_scale != 1.0 else "")
            ),
            paper=True,
        )(lambda base, system, seed, _spec=spec: build_workload(_spec, base, system, seed=seed))
    for spec in CASE_STUDY_SPECS.values():
        register_workload(
            spec.name,
            description=(
                f"§V-E {spec.name}: {spec.bb_fraction:.0%} BB jobs plus "
                f"100–215 W/node power profiles under the facility budget"
            ),
            case_study=True,
            paper=True,
        )(lambda base, system, seed, _spec=spec: build_workload(_spec, base, system, seed=seed))


_register_spec_workloads()


# -- systems -----------------------------------------------------------------


@register_system(
    "mini_theta",
    description="Proportional miniature of Theta (contention ratios preserved)",
)
def _make_mini_theta(nodes=128, bb_units=64):
    from repro.cluster.resources import SystemConfig

    return SystemConfig.mini_theta(nodes=nodes, bb_units=bb_units)


@register_system(
    "theta",
    description="Full-scale Theta: 4,392 KNL nodes + 1.26 PB burst buffer",
)
def _make_theta():
    from repro.cluster.resources import SystemConfig

    return SystemConfig.theta()
